#include "asn1/der.h"

#include <gtest/gtest.h>

#include <limits>

namespace unicore::asn1 {
namespace {

using util::Bytes;

Value round_trip(const Value& v) {
  Bytes der = encode(v);
  auto decoded = decode(der);
  EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
  return decoded.value();
}

TEST(Der, BooleanEncoding) {
  EXPECT_EQ(encode(Value::boolean(true)), (Bytes{0x01, 0x01, 0xff}));
  EXPECT_EQ(encode(Value::boolean(false)), (Bytes{0x01, 0x01, 0x00}));
  EXPECT_EQ(round_trip(Value::boolean(true)).as_boolean(), true);
}

TEST(Der, RejectsNonCanonicalBoolean) {
  // 0x42 is truthy in BER but not valid DER.
  Bytes ber{0x01, 0x01, 0x42};
  EXPECT_FALSE(decode(ber).ok());
}

class IntegerRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IntegerRoundTrip, Exact) {
  EXPECT_EQ(round_trip(Value::integer(GetParam())).as_integer(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, IntegerRoundTrip,
    ::testing::Values(0LL, 1LL, -1LL, 127LL, 128LL, -128LL, -129LL, 255LL,
                      256LL, 32'767LL, -32'768LL, 1LL << 40, -(1LL << 40),
                      std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min()));

TEST(Der, IntegerMinimalEncoding) {
  // 127 -> 02 01 7F ; 128 -> 02 02 00 80 (leading zero to keep positive)
  EXPECT_EQ(encode(Value::integer(127)), (Bytes{0x02, 0x01, 0x7f}));
  EXPECT_EQ(encode(Value::integer(128)), (Bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(encode(Value::integer(-1)), (Bytes{0x02, 0x01, 0xff}));
  EXPECT_EQ(encode(Value::integer(0)), (Bytes{0x02, 0x01, 0x00}));
}

TEST(Der, OctetStringRoundTrip) {
  Bytes payload{0, 1, 2, 253, 254, 255};
  EXPECT_EQ(round_trip(Value::octet_string(payload)).as_octet_string(),
            payload);
}

TEST(Der, LongFormLength) {
  // 300-byte content forces the 0x82 long length form.
  Bytes payload(300, 0xaa);
  Bytes der = encode(Value::octet_string(payload));
  EXPECT_EQ(der[1], 0x82);
  EXPECT_EQ(der[2], 0x01);
  EXPECT_EQ(der[3], 0x2c);
  EXPECT_EQ(round_trip(Value::octet_string(payload)).as_octet_string(),
            payload);
}

TEST(Der, RejectsNonMinimalLength) {
  // Length 3 encoded in long form (0x81 0x03) is BER, not DER.
  Bytes ber{0x04, 0x81, 0x03, 1, 2, 3};
  EXPECT_FALSE(decode(ber).ok());
  // So is length 130 in two length bytes with a leading zero.
  Bytes padded{0x04, 0x82, 0x00, 0x82};
  padded.resize(padded.size() + 130, 0xaa);
  EXPECT_FALSE(decode(padded).ok());
  Bytes minimal{0x04, 0x81, 0x82};
  minimal.resize(minimal.size() + 130, 0xaa);
  EXPECT_TRUE(decode(minimal).ok());
}

TEST(Der, RejectsNonMinimalInteger) {
  // A leading byte that only repeats the sign of the next one is BER.
  EXPECT_FALSE(decode(Bytes{0x02, 0x02, 0x00, 0x05}).ok());
  EXPECT_FALSE(decode(Bytes{0x02, 0x02, 0xff, 0x80}).ok());
  EXPECT_FALSE(decode(Bytes{0x17, 0x02, 0x00, 0x05}).ok());  // UTCTime too
  // The sign byte stays where the next byte would flip the sign.
  EXPECT_EQ(decode(Bytes{0x02, 0x02, 0x00, 0x80}).value().as_integer(), 128);
  EXPECT_EQ(decode(Bytes{0x02, 0x02, 0xff, 0x7f}).value().as_integer(), -129);
  const Bytes padded{0x02, 0x02, 0x00, 0x05};
  Reader in(padded);
  EXPECT_EQ(in.integer(), 0);
  EXPECT_FALSE(in.ok());
}

TEST(Der, NullRoundTrip) {
  EXPECT_EQ(encode(Value::null()), (Bytes{0x05, 0x00}));
  EXPECT_TRUE(round_trip(Value::null()).is_null());
}

TEST(Der, RejectsNullWithContent) {
  Bytes bad{0x05, 0x01, 0x00};
  EXPECT_FALSE(decode(bad).ok());
}

TEST(Der, OidCommonNameKnownVector) {
  // id-at-commonName 2.5.4.3 encodes as 06 03 55 04 03.
  Oid cn{{2, 5, 4, 3}};
  EXPECT_EQ(encode(Value::oid(cn)), (Bytes{0x06, 0x03, 0x55, 0x04, 0x03}));
  EXPECT_EQ(round_trip(Value::oid(cn)).as_oid(), cn);
}

TEST(Der, OidMultiByteArcs) {
  // 1.2.840.113549 (RSA) -> 06 06 2A 86 48 86 F7 0D
  Oid rsa{{1, 2, 840, 113549}};
  EXPECT_EQ(encode(Value::oid(rsa)),
            (Bytes{0x06, 0x06, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d}));
  EXPECT_EQ(round_trip(Value::oid(rsa)).as_oid(), rsa);
  EXPECT_EQ(rsa.to_string(), "1.2.840.113549");
}

TEST(Der, Utf8StringRoundTrip) {
  EXPECT_EQ(round_trip(Value::utf8("Jülich")).as_utf8(), "Jülich");
  EXPECT_EQ(round_trip(Value::utf8("")).as_utf8(), "");
}

TEST(Der, UtcTimeRoundTrip) {
  EXPECT_EQ(round_trip(Value::utc_time(935'536'000)).as_utc_time(),
            935'536'000);
  EXPECT_EQ(round_trip(Value::utc_time(-1)).as_utc_time(), -1);
}

TEST(Der, SequenceNestedRoundTrip) {
  Value v = Value::sequence(
      {Value::integer(42), Value::utf8("x"),
       Value::sequence({Value::boolean(true), Value::null()}),
       Value::set({Value::integer(1), Value::integer(2)})});
  Value back = round_trip(v);
  ASSERT_TRUE(back.is_sequence());
  ASSERT_EQ(back.as_sequence().size(), 4u);
  EXPECT_EQ(back, v);
}

TEST(Der, EmptySequence) {
  EXPECT_EQ(encode(Value::sequence({})), (Bytes{0x30, 0x00}));
  EXPECT_TRUE(round_trip(Value::sequence({})).as_sequence().empty());
}

TEST(Der, DecodeRejectsTrailingBytes) {
  Bytes der = encode(Value::integer(5));
  der.push_back(0x00);
  EXPECT_FALSE(decode(der).ok());
}

TEST(Der, DecodePrefixReportsConsumed) {
  Bytes der = encode(Value::integer(5));
  std::size_t original = der.size();
  der.push_back(0x99);
  std::size_t consumed = 0;
  auto v = decode_prefix(der, consumed);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(consumed, original);
}

TEST(Der, DecodeRejectsTruncation) {
  Bytes der = encode(Value::utf8("hello world"));
  for (std::size_t cut = 1; cut < der.size(); ++cut) {
    Bytes prefix(der.begin(), der.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(prefix).ok()) << "cut=" << cut;
  }
}

TEST(Der, CanonicalEncodingIsStable) {
  Value v = Value::sequence({Value::integer(7), Value::utf8("abc")});
  EXPECT_EQ(encode(v), encode(round_trip(v)));
}

TEST(Der, TypeMismatchAccessorsThrow) {
  Value v = Value::integer(1);
  EXPECT_THROW(v.as_utf8(), std::runtime_error);
  EXPECT_THROW(v.as_sequence(), std::runtime_error);
  EXPECT_THROW(v.as_boolean(), std::runtime_error);
  EXPECT_THROW(v.as_oid(), std::runtime_error);
}

// ---- the streaming Writer and Reader -------------------------------------

// The DER length octets of `len`, from the definition.
Bytes length_octets(std::size_t len) {
  if (len < 0x80) return {static_cast<std::uint8_t>(len)};
  Bytes digits;
  for (; len > 0; len >>= 8)
    digits.insert(digits.begin(), static_cast<std::uint8_t>(len & 0xff));
  digits.insert(digits.begin(), static_cast<std::uint8_t>(0x80 | digits.size()));
  return digits;
}

TEST(Der, WriterBackPatchesEveryLengthForm) {
  // Two nested constructed values around a primitive of each size: the
  // inner and outer lengths cross the short/long boundary and the one-
  // to three-byte long forms at different sizes.
  for (std::size_t n : {0u, 1u, 123u, 124u, 125u, 126u, 127u, 128u, 250u,
                        255u, 256u, 65'531u, 65'535u, 65'536u, 70'000u}) {
    const Bytes payload(n, 0x5a);
    Writer out;
    const Writer::Mark outer = out.begin(Tag::kSequence);
    const Writer::Mark inner = out.begin(Tag::kSet);
    out.octet_string(payload);
    out.end(inner);
    out.end(outer);
    Bytes primitive{0x04};
    util::append(primitive, length_octets(n));
    util::append(primitive, payload);
    Bytes set{0x31};
    util::append(set, length_octets(primitive.size()));
    util::append(set, primitive);
    Bytes expected{0x30};
    util::append(expected, length_octets(set.size()));
    util::append(expected, set);
    ASSERT_EQ(out.take(), expected) << n;
    auto decoded = decode(expected);
    ASSERT_TRUE(decoded.ok()) << n;
    EXPECT_EQ(decoded.value().as_sequence()[0].as_set()[0].as_octet_string(),
              payload);
  }
}

// `depth` SEQUENCEs, each the only content of the one around it, built
// from the inside out so the 100,000-deep case stays linear.
Bytes nested_sequences(std::size_t depth) {
  std::vector<Bytes> headers;  // innermost first
  std::size_t inner = 0;       // size of the value the next header wraps
  for (std::size_t i = 0; i < depth; ++i) {
    Bytes header{0x30};
    if (inner < 0x80) {
      header.push_back(static_cast<std::uint8_t>(inner));
    } else {
      Bytes digits;
      for (std::size_t n = inner; n > 0; n >>= 8)
        digits.insert(digits.begin(), static_cast<std::uint8_t>(n & 0xff));
      header.push_back(static_cast<std::uint8_t>(0x80 | digits.size()));
      util::append(header, digits);
    }
    inner += header.size();
    headers.push_back(std::move(header));
  }
  Bytes der;
  for (auto it = headers.rbegin(); it != headers.rend(); ++it)
    util::append(der, *it);
  return der;
}

TEST(Der, RefusesNestingBeyondTheBound) {
  // The outermost value is depth 0; the innermost here sits at the bound.
  EXPECT_TRUE(decode(nested_sequences(util::kMaxNesting + 1)).ok());
  EXPECT_FALSE(decode(nested_sequences(util::kMaxNesting + 2)).ok());
  // Deep enough to overflow the stack of an unbounded recursive decoder.
  Bytes deep = nested_sequences(100'000);
  EXPECT_GT(deep.size(), 480'000u);
  auto decoded = decode(deep);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("nested too deeply"),
            std::string::npos)
      << decoded.error().message;
}

TEST(Der, ReaderKeepsTheFirstFailure) {
  // SEQUENCE { INTEGER 5, BOOLEAN TRUE }
  const Bytes der{0x30, 0x06, 0x02, 0x01, 0x05, 0x01, 0x01, 0xff};
  {
    Reader in(der);
    Reader fields = in.enter(Tag::kSequence);
    EXPECT_EQ(fields.integer(), 5);
    EXPECT_TRUE(fields.boolean());
    in.leave(fields);
    EXPECT_TRUE(in.finish().ok());
  }
  {
    Reader in(der);
    Reader fields = in.enter(Tag::kSequence);
    EXPECT_FALSE(fields.boolean());  // the INTEGER is not a BOOLEAN
    EXPECT_FALSE(fields.ok());
    EXPECT_EQ(fields.integer(), 0);  // later reads return empty values
    const std::string first = fields.finish().error().message;
    EXPECT_NE(first.find("expected tag 1, found 2"), std::string::npos)
        << first;
    in.leave(fields);
    EXPECT_EQ(in.finish().error().message, first);
  }
  {
    // Content left unread inside a value fails the reader it came from.
    Reader in(der);
    Reader fields = in.enter(Tag::kSequence);
    EXPECT_EQ(fields.integer(), 5);
    in.leave(fields);
    EXPECT_FALSE(in.ok());
  }
  {
    // So do bytes after the last value.
    Bytes longer = der;
    longer.push_back(0x00);
    Reader in(longer);
    Reader fields = in.enter(Tag::kSequence);
    EXPECT_EQ(fields.integer(), 5);
    EXPECT_TRUE(fields.boolean());
    in.leave(fields);
    EXPECT_TRUE(in.ok());
    EXPECT_FALSE(in.finish().ok());
  }
}

}  // namespace
}  // namespace unicore::asn1
