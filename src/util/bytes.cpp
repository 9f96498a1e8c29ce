#include "util/bytes.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace unicore::util {

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

namespace {

Error malformed(const char* what) {
  return make_error(ErrorCode::kInvalidArgument,
                    std::string("ByteReader: ") + what);
}

}  // namespace

bool ByteReader::need(std::size_t n) {
  if (ok() && data_.size() - pos_ < n) fail(malformed("truncated input"));
  return ok();
}

void ByteReader::fail(Error error) {
  if (status_.ok()) status_ = std::move(error);
}

Status ByteReader::finish() const {
  if (ok() && !done()) return malformed("trailing bytes");
  return status_;
}

template <typename T>
T ByteReader::big_endian() {
  if (!need(sizeof(T))) return 0;
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v = static_cast<T>(v << 8 | data_[pos_ + i]);
  pos_ += sizeof(T);
  return v;
}

std::uint8_t ByteReader::u8() { return big_endian<std::uint8_t>(); }
std::uint16_t ByteReader::u16() { return big_endian<std::uint16_t>(); }
std::uint32_t ByteReader::u32() { return big_endian<std::uint32_t>(); }
std::uint64_t ByteReader::u64() { return big_endian<std::uint64_t>(); }

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; need(1); shift += 7) {
    std::uint8_t byte = data_[pos_++];
    if (shift >= 64) {
      fail(malformed("varint longer than 64 bits"));
      break;
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
  }
  return 0;
}

Bytes ByteReader::raw(std::size_t n) {
  if (!need(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes ByteReader::blob() { return raw(static_cast<std::size_t>(count())); }

std::string ByteReader::str() {
  Bytes b = blob();
  return std::string(b.begin(), b.end());
}

std::uint64_t ByteReader::count() {
  std::uint64_t n = varint();
  if (n <= remaining()) return n;
  fail(malformed("length or count exceeds input"));
  return 0;
}

std::vector<std::string> ByteReader::strings() {
  std::uint64_t n = count();
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && ok(); ++i) out.push_back(str());
  return out;
}

std::string hex_encode(ByteView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("hex_decode: bad digit");
}
}  // namespace

Bytes hex_decode(std::string_view s) {
  if (s.size() % 2 != 0) throw std::invalid_argument("hex_decode: odd length");
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(hex_value(s[i]) << 4 | hex_value(s[i + 1])));
  return out;
}

bool constant_time_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace unicore::util
