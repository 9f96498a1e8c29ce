// A DER (Distinguished Encoding Rules) subset.
//
// The paper stores per-Vsite resource pages "in ASN1 format" (§5.4) and
// builds its security architecture on X.509 certificates, whose native
// encoding is DER. This module implements the value model and the
// definite-length DER encoding for the universal types those two users
// need: BOOLEAN, INTEGER, OCTET STRING, NULL, OBJECT IDENTIFIER,
// UTF8String, UTCTime (as seconds since epoch), SEQUENCE and SET.
//
// Encoding is canonical: a value always encodes to exactly one byte
// string, so encodings can be signed and compared directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace unicore::asn1 {

/// DER universal tag numbers (subset).
enum class Tag : std::uint8_t {
  kBoolean = 0x01,
  kInteger = 0x02,
  kOctetString = 0x04,
  kNull = 0x05,
  kOid = 0x06,
  kUtf8String = 0x0c,
  kUtcTime = 0x17,
  kSequence = 0x30,  // constructed
  kSet = 0x31,       // constructed
};

class Value;
using ValueList = std::vector<Value>;

/// Object identifier as its arc numbers, e.g. {2,5,4,3} = id-at-commonName.
struct Oid {
  std::vector<std::uint32_t> arcs;
  bool operator==(const Oid&) const = default;
  std::string to_string() const;  // dotted form "2.5.4.3"
};

/// A parsed or to-be-encoded ASN.1 value.
class Value {
 public:
  struct Null {
    bool operator==(const Null&) const = default;
  };
  struct UtcTime {
    std::int64_t seconds_since_epoch = 0;
    bool operator==(const UtcTime&) const = default;
  };

  // Constructors for each supported universal type.
  static Value boolean(bool v);
  static Value integer(std::int64_t v);
  static Value octet_string(util::Bytes v);
  static Value null();
  static Value oid(Oid v);
  static Value utf8(std::string v);
  static Value utc_time(std::int64_t seconds_since_epoch);
  static Value sequence(ValueList items);
  static Value set(ValueList items);

  Tag tag() const;

  bool is_boolean() const;
  bool is_integer() const;
  bool is_octet_string() const;
  bool is_null() const;
  bool is_oid() const;
  bool is_utf8() const;
  bool is_utc_time() const;
  bool is_sequence() const;
  bool is_set() const;

  // Checked accessors; throw std::runtime_error on type mismatch. A
  // decoder checks a value's type (is_*) before it reads the value.
  bool as_boolean() const;
  std::int64_t as_integer() const;
  const util::Bytes& as_octet_string() const;
  const Oid& as_oid() const;
  const std::string& as_utf8() const;
  std::int64_t as_utc_time() const;
  const ValueList& as_sequence() const;
  const ValueList& as_set() const;

  bool operator==(const Value&) const = default;

 private:
  struct Constructed {
    Tag tag;
    ValueList items;
    bool operator==(const Constructed&) const = default;
  };

  std::variant<bool, std::int64_t, util::Bytes, Null, Oid, std::string,
               UtcTime, Constructed>
      data_;
};

/// Streams canonical DER into a byte string. A primitive value is
/// written whole; a constructed one is opened with begin() and closed
/// with end(), which back-patches its length. Every DER encoder here,
/// encode() of a Value tree included, writes through this class, so each
/// encoding rule exists once.
class Writer {
 public:
  /// An open value: where its length byte sits.
  struct Mark {
    std::size_t length_at = 0;
  };

  void boolean(bool v);
  /// Minimal two's complement, big-endian.
  void integer(std::int64_t v);
  /// Seconds since the epoch as INTEGER content inside the UTCTime tag;
  /// the textual YYMMDDhhmmssZ form is irrelevant to this reproduction.
  void utc_time(std::int64_t seconds_since_epoch);
  void utf8(std::string_view v);
  void octet_string(util::ByteView v);
  void null();
  void oid(const Oid& v);

  /// Opens a value of `tag` whose content is everything written until
  /// end(mark).
  Mark begin(Tag tag);
  /// Writes the minimal length of the value `mark` opened: in place below
  /// 128 bytes of content, else moving the content up to make room for
  /// the long form.
  void end(Mark mark);

  util::Bytes take() { return std::move(out_); }

 private:
  void tlv(Tag tag, util::ByteView content);
  void twos_complement(Tag tag, std::int64_t v);

  util::Bytes out_;
};

/// Reads DER values in order from a byte string without copying it.
/// Every read checks a definite length in its minimal form (the long
/// form only from 128 up, with no leading zero byte), no truncation, a
/// canonical BOOLEAN and a minimal INTEGER of one to eight bytes.
/// The first failure sticks: later reads return empty values, and
/// finish() reports it. decode() of a Value tree reads through this
/// class too, so each decoding rule exists once.
class Reader {
 public:
  struct Element {
    std::uint8_t tag = 0;
    util::ByteView content;
  };

  explicit Reader(util::ByteView der) : data_(der) {}

  /// The next value's tag and content.
  Element next();
  /// The next value's content; fails unless its tag is `tag`.
  util::ByteView expect(Tag tag);
  /// A reader over the content of the next value, which must carry `tag`;
  /// hand it back to leave() once its contents are read.
  Reader enter(Tag tag) { return Reader(expect(tag)); }
  /// Fails this reader when `inner` failed or left content unread.
  void leave(const Reader& inner);

  bool boolean();
  std::int64_t integer();
  std::int64_t utc_time();
  std::string utf8();

  /// Records a failure; only the first one is kept.
  void fail(util::Error error);

  bool ok() const { return status_.ok(); }
  bool at_end() const { return pos_ == data_.size(); }
  /// Bytes consumed so far.
  std::size_t position() const { return pos_; }
  /// The first failure, or an error when input remains unread.
  util::Status finish() const;

 private:
  util::ByteView data_;
  std::size_t pos_ = 0;
  util::Status status_;
};

/// Encodes a value to canonical DER.
util::Bytes encode(const Value& value);

/// Decodes exactly one DER value occupying the whole input. Constructed
/// values nested deeper than util::kMaxNesting are refused.
util::Result<Value> decode(util::ByteView der);

/// Decodes one DER value from the front of `der`, reporting its size.
util::Result<Value> decode_prefix(util::ByteView der, std::size_t& consumed);

}  // namespace unicore::asn1
