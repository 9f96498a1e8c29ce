#include "asn1/der.h"

#include <cstddef>
#include <stdexcept>

namespace unicore::asn1 {

using util::ByteView;
using util::Bytes;
using util::Error;
using util::ErrorCode;
using util::Result;

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i) out.push_back('.');
    out += std::to_string(arcs[i]);
  }
  return out;
}

// ---- constructors ----------------------------------------------------

Value Value::boolean(bool v) {
  Value out;
  out.data_ = v;
  return out;
}
Value Value::integer(std::int64_t v) {
  Value out;
  out.data_ = v;
  return out;
}
Value Value::octet_string(Bytes v) {
  Value out;
  out.data_ = std::move(v);
  return out;
}
Value Value::null() {
  Value out;
  out.data_ = Null{};
  return out;
}
Value Value::oid(Oid v) {
  Value out;
  out.data_ = std::move(v);
  return out;
}
Value Value::utf8(std::string v) {
  Value out;
  out.data_ = std::move(v);
  return out;
}
Value Value::utc_time(std::int64_t seconds) {
  Value out;
  out.data_ = UtcTime{seconds};
  return out;
}
Value Value::sequence(ValueList items) {
  Value out;
  out.data_ = Constructed{Tag::kSequence, std::move(items)};
  return out;
}
Value Value::set(ValueList items) {
  Value out;
  out.data_ = Constructed{Tag::kSet, std::move(items)};
  return out;
}

Tag Value::tag() const {
  if (is_boolean()) return Tag::kBoolean;
  if (is_integer()) return Tag::kInteger;
  if (is_octet_string()) return Tag::kOctetString;
  if (is_null()) return Tag::kNull;
  if (is_oid()) return Tag::kOid;
  if (is_utf8()) return Tag::kUtf8String;
  if (is_utc_time()) return Tag::kUtcTime;
  return std::get<Constructed>(data_).tag;
}

bool Value::is_boolean() const { return std::holds_alternative<bool>(data_); }
bool Value::is_integer() const {
  return std::holds_alternative<std::int64_t>(data_);
}
bool Value::is_octet_string() const {
  return std::holds_alternative<Bytes>(data_);
}
bool Value::is_null() const { return std::holds_alternative<Null>(data_); }
bool Value::is_oid() const { return std::holds_alternative<Oid>(data_); }
bool Value::is_utf8() const {
  return std::holds_alternative<std::string>(data_);
}
bool Value::is_utc_time() const {
  return std::holds_alternative<UtcTime>(data_);
}
bool Value::is_sequence() const {
  return std::holds_alternative<Constructed>(data_) &&
         std::get<Constructed>(data_).tag == Tag::kSequence;
}
bool Value::is_set() const {
  return std::holds_alternative<Constructed>(data_) &&
         std::get<Constructed>(data_).tag == Tag::kSet;
}

namespace {
[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error(std::string("asn1: value is not a ") + expected);
}
}  // namespace

bool Value::as_boolean() const {
  if (!is_boolean()) type_error("BOOLEAN");
  return std::get<bool>(data_);
}
std::int64_t Value::as_integer() const {
  if (!is_integer()) type_error("INTEGER");
  return std::get<std::int64_t>(data_);
}
const Bytes& Value::as_octet_string() const {
  if (!is_octet_string()) type_error("OCTET STRING");
  return std::get<Bytes>(data_);
}
const Oid& Value::as_oid() const {
  if (!is_oid()) type_error("OBJECT IDENTIFIER");
  return std::get<Oid>(data_);
}
const std::string& Value::as_utf8() const {
  if (!is_utf8()) type_error("UTF8String");
  return std::get<std::string>(data_);
}
std::int64_t Value::as_utc_time() const {
  if (!is_utc_time()) type_error("UTCTime");
  return std::get<UtcTime>(data_).seconds_since_epoch;
}
const ValueList& Value::as_sequence() const {
  if (!is_sequence()) type_error("SEQUENCE");
  return std::get<Constructed>(data_).items;
}
const ValueList& Value::as_set() const {
  if (!is_set()) type_error("SET");
  return std::get<Constructed>(data_).items;
}

// ---- Writer -----------------------------------------------------------

namespace {

// Bytes needed for the big-endian form of `len` (> 0).
std::size_t length_digits(std::size_t len) {
  std::size_t digits = 0;
  for (; len > 0; len >>= 8) ++digits;
  return digits;
}

void put_big_endian(std::uint8_t* out, std::size_t len, std::size_t digits) {
  for (std::size_t i = digits; i-- > 0; len >>= 8)
    out[i] = static_cast<std::uint8_t>(len & 0xff);
}

// True when `lead` only repeats the sign bit of `next`: a two's
// complement byte that DER leaves out.
bool redundant_sign_byte(std::uint8_t lead, std::uint8_t next) {
  return (lead == 0x00 && !(next & 0x80)) || (lead == 0xff && (next & 0x80));
}

}  // namespace

void Writer::tlv(Tag tag, ByteView content) {
  out_.push_back(static_cast<std::uint8_t>(tag));
  const std::size_t len = content.size();
  if (len < 0x80) {
    out_.push_back(static_cast<std::uint8_t>(len));
  } else {
    // Long form: 0x80 | number-of-length-bytes, then the length.
    const std::size_t digits = length_digits(len);
    out_.push_back(static_cast<std::uint8_t>(0x80 | digits));
    out_.resize(out_.size() + digits);
    put_big_endian(out_.data() + out_.size() - digits, len, digits);
  }
  util::append(out_, content);
}

void Writer::twos_complement(Tag tag, std::int64_t v) {
  std::uint8_t digits[8];
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 7; i >= 0; --i, u >>= 8)
    digits[i] = static_cast<std::uint8_t>(u & 0xff);
  std::size_t start = 0;
  while (start < 7 && redundant_sign_byte(digits[start], digits[start + 1]))
    ++start;
  tlv(tag, ByteView(digits + start, 8 - start));
}

void Writer::boolean(bool v) {
  const std::uint8_t content = v ? 0xff : 0x00;
  tlv(Tag::kBoolean, ByteView(&content, 1));
}

void Writer::integer(std::int64_t v) { twos_complement(Tag::kInteger, v); }

void Writer::utc_time(std::int64_t seconds_since_epoch) {
  twos_complement(Tag::kUtcTime, seconds_since_epoch);
}

void Writer::utf8(std::string_view v) {
  tlv(Tag::kUtf8String,
      ByteView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
}

void Writer::octet_string(ByteView v) { tlv(Tag::kOctetString, v); }

void Writer::null() { tlv(Tag::kNull, {}); }

void Writer::oid(const Oid& v) {
  if (v.arcs.size() < 2)
    throw std::runtime_error("asn1: OID needs at least two arcs");
  const Mark mark = begin(Tag::kOid);
  out_.push_back(static_cast<std::uint8_t>(v.arcs[0] * 40 + v.arcs[1]));
  for (std::size_t i = 2; i < v.arcs.size(); ++i) {
    // Base 128, most significant group first, continuation bit on all
    // groups but the last.
    std::uint8_t groups[5];
    std::size_t n = 0;
    std::uint32_t arc = v.arcs[i];
    do {
      groups[n++] = static_cast<std::uint8_t>(arc & 0x7f);
      arc >>= 7;
    } while (arc > 0);
    while (n-- > 0)
      out_.push_back(static_cast<std::uint8_t>(groups[n] | (n > 0 ? 0x80 : 0)));
  }
  end(mark);
}

Writer::Mark Writer::begin(Tag tag) {
  out_.push_back(static_cast<std::uint8_t>(tag));
  out_.push_back(0);  // the length, once end() knows it
  return Mark{out_.size() - 1};
}

void Writer::end(Mark mark) {
  const std::size_t content_at = mark.length_at + 1;
  const std::size_t len = out_.size() - content_at;
  if (len < 0x80) {
    out_[mark.length_at] = static_cast<std::uint8_t>(len);
    return;
  }
  const std::size_t digits = length_digits(len);
  out_[mark.length_at] = static_cast<std::uint8_t>(0x80 | digits);
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(content_at), digits,
              std::uint8_t{0});
  put_big_endian(out_.data() + content_at, len, digits);
}

namespace {

void write_value(Writer& out, const Value& value) {
  if (value.is_boolean()) {
    out.boolean(value.as_boolean());
  } else if (value.is_integer()) {
    out.integer(value.as_integer());
  } else if (value.is_octet_string()) {
    out.octet_string(value.as_octet_string());
  } else if (value.is_null()) {
    out.null();
  } else if (value.is_oid()) {
    out.oid(value.as_oid());
  } else if (value.is_utf8()) {
    out.utf8(value.as_utf8());
  } else if (value.is_utc_time()) {
    out.utc_time(value.as_utc_time());
  } else {
    const Writer::Mark mark = out.begin(value.tag());
    for (const Value& item :
         value.is_sequence() ? value.as_sequence() : value.as_set())
      write_value(out, item);
    out.end(mark);
  }
}

}  // namespace

Bytes encode(const Value& value) {
  Writer out;
  write_value(out, value);
  return out.take();
}

// ---- Reader -----------------------------------------------------------

namespace {

Error invalid(const std::string& message) {
  return util::make_error(ErrorCode::kInvalidArgument, "asn1: " + message);
}

Result<bool> boolean_content(ByteView content) {
  if (content.size() != 1 || (content[0] != 0x00 && content[0] != 0xff))
    return invalid("non-DER BOOLEAN");
  return content[0] == 0xff;
}

Result<std::int64_t> integer_content(ByteView content) {
  if (content.empty()) return invalid("empty INTEGER");
  if (content.size() > 8) return invalid("INTEGER exceeds 64 bits");
  if (content.size() > 1 && redundant_sign_byte(content[0], content[1]))
    return invalid("non-minimal INTEGER (not DER)");
  // Sign-extend from the first content byte.
  std::uint64_t v = (content[0] & 0x80) ? ~std::uint64_t{0} : 0;
  for (std::uint8_t byte : content) v = v << 8 | byte;
  return static_cast<std::int64_t>(v);
}

Result<Oid> oid_content(ByteView content) {
  if (content.empty()) return invalid("empty OID");
  Oid oid;
  oid.arcs.push_back(content[0] / 40);
  oid.arcs.push_back(content[0] % 40);
  std::uint32_t arc = 0;
  bool in_arc = false;
  for (std::size_t i = 1; i < content.size(); ++i) {
    arc = arc << 7 | (content[i] & 0x7f);
    in_arc = true;
    if ((content[i] & 0x80) == 0) {
      oid.arcs.push_back(arc);
      arc = 0;
      in_arc = false;
    }
  }
  if (in_arc) return invalid("truncated OID arc");
  return oid;
}

// The value of `result`, or T{} after failing `reader` with its error.
template <typename T>
T take(Reader& reader, Result<T> result) {
  if (!result) {
    reader.fail(result.error());
    return T{};
  }
  return std::move(result).value();
}

}  // namespace

void Reader::fail(Error error) {
  if (status_.ok()) status_ = std::move(error);
}

Reader::Element Reader::next() {
  if (!ok()) return {};
  const auto truncated = [this] {
    fail(invalid("truncated DER input"));
    return Element{};
  };
  if (pos_ >= data_.size()) return truncated();
  Element element;
  element.tag = data_[pos_++];
  if (pos_ >= data_.size()) return truncated();
  std::size_t len = data_[pos_++];
  if (len & 0x80) {
    const std::size_t count = len & 0x7f;
    if (count == 0 || count > sizeof(std::size_t)) {
      fail(invalid("unsupported length encoding"));
      return {};
    }
    if (data_.size() - pos_ < count) return truncated();
    len = 0;
    for (std::size_t i = 0; i < count; ++i) len = len << 8 | data_[pos_++];
    if (len < 0x80 || length_digits(len) != count) {
      fail(invalid("non-minimal length (not DER)"));
      return {};
    }
  }
  if (data_.size() - pos_ < len) return truncated();
  element.content = data_.subspan(pos_, len);
  pos_ += len;
  return element;
}

ByteView Reader::expect(Tag tag) {
  const Element element = next();
  if (!ok()) return {};
  if (element.tag != static_cast<std::uint8_t>(tag)) {
    fail(invalid("expected tag " +
                 std::to_string(static_cast<unsigned>(tag)) + ", found " +
                 std::to_string(element.tag)));
    return {};
  }
  return element.content;
}

void Reader::leave(const Reader& inner) {
  const util::Status done = inner.finish();
  if (!done.ok()) fail(done.error());
}

bool Reader::boolean() {
  return take(*this, boolean_content(expect(Tag::kBoolean)));
}

std::int64_t Reader::integer() {
  return take(*this, integer_content(expect(Tag::kInteger)));
}

std::int64_t Reader::utc_time() {
  return take(*this, integer_content(expect(Tag::kUtcTime)));
}

std::string Reader::utf8() { return util::to_string(expect(Tag::kUtf8String)); }

util::Status Reader::finish() const {
  if (!ok()) return status_;
  if (!at_end()) return invalid("trailing bytes after DER value");
  return util::Status::ok_status();
}

namespace {

Value read_value(Reader& reader, std::size_t depth) {
  if (depth > util::kMaxNesting) {
    reader.fail(invalid("values nested too deeply"));
    return {};
  }
  const Reader::Element element = reader.next();
  if (!reader.ok()) return {};
  const ByteView c = element.content;
  switch (static_cast<Tag>(element.tag)) {
    case Tag::kBoolean:
      return Value::boolean(take(reader, boolean_content(c)));
    case Tag::kInteger:
      return Value::integer(take(reader, integer_content(c)));
    case Tag::kOctetString:
      return Value::octet_string(Bytes(c.begin(), c.end()));
    case Tag::kNull:
      if (!c.empty()) reader.fail(invalid("NULL with content"));
      return Value::null();
    case Tag::kOid:
      return Value::oid(take(reader, oid_content(c)));
    case Tag::kUtf8String:
      return Value::utf8(util::to_string(c));
    case Tag::kUtcTime:
      return Value::utc_time(take(reader, integer_content(c)));
    case Tag::kSequence:
    case Tag::kSet: {
      Reader inner(c);
      ValueList items;
      while (inner.ok() && !inner.at_end())
        items.push_back(read_value(inner, depth + 1));
      reader.leave(inner);
      return static_cast<Tag>(element.tag) == Tag::kSequence
                 ? Value::sequence(std::move(items))
                 : Value::set(std::move(items));
    }
  }
  reader.fail(invalid("unsupported tag " + std::to_string(element.tag)));
  return {};
}

}  // namespace

Result<Value> decode_prefix(ByteView der, std::size_t& consumed) {
  Reader reader(der);
  Value value = read_value(reader, 0);
  if (!reader.ok()) return reader.finish().error();
  consumed = reader.position();
  return value;
}

Result<Value> decode(ByteView der) {
  Reader reader(der);
  Value value = read_value(reader, 0);
  util::Status done = reader.finish();
  if (!done.ok()) return done.error();
  return value;
}

}  // namespace unicore::asn1
