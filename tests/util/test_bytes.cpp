#include "util/bytes.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace unicore::util {
namespace {

TEST(ByteWriter, FixedWidthBigEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 15u);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x12);
  EXPECT_EQ(b[2], 0x34);
  EXPECT_EQ(b[3], 0xde);
  EXPECT_EQ(b[6], 0xef);
  EXPECT_EQ(b[7], 0x01);
  EXPECT_EQ(b[14], 0x08);
}

TEST(ByteRoundTrip, AllScalarTypes) {
  ByteWriter w;
  w.u8(200);
  w.u16(65535);
  w.u32(4'000'000'000u);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(-42);
  w.f64(3.14159265358979);
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 4'000'000'000u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Exact) {
  ByteWriter w;
  w.varint(GetParam());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16'383ULL,
                      16'384ULL, 1ULL << 21, 1ULL << 28, 1ULL << 35,
                      1ULL << 42, 1ULL << 49, 1ULL << 56, 1ULL << 63,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Varint, SmallValuesAreOneByte) {
  for (std::uint64_t v = 0; v < 128; ++v) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(ByteReader, FailsOnTruncatedInput) {
  ByteWriter w;
  w.u32(5);
  ByteReader r(w.bytes());
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, FailsOnOversizedBlobLength) {
  // A varint length far beyond the actual data must not allocate.
  Bytes evil{0xff, 0xff, 0xff, 0xff, 0x0f};  // varint ~2^32
  ByteReader r(evil);
  (void)r.blob();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, FailsOnVarintLongerThan64Bits) {
  Bytes ten(10, 0x80);  // ten continuation bytes, then a final one
  ten.push_back(0x01);
  ByteReader r(ten);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_FALSE(r.ok());
  // A tenth byte carries bit 63 only: anything above 1 would be dropped.
  for (Bytes tenth : {Bytes(9, 0x80), Bytes(9, 0xff)}) {
    for (std::uint8_t last : {0x02, 0x7f}) {
      tenth.push_back(last);
      ByteReader over(tenth);
      EXPECT_EQ(over.varint(), 0u);
      EXPECT_FALSE(over.finish().ok()) << int(last);
      tenth.pop_back();
    }
  }
  // The longest varint the writer emits still reads.
  ByteWriter w;
  w.varint(std::numeric_limits<std::uint64_t>::max());
  ByteReader max(w.bytes());
  EXPECT_EQ(max.varint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(max.finish().ok());
}

TEST(ByteReader, FailsOnNonMinimalVarint) {
  // A multi-byte varint that ends on a zero byte has a shorter form.
  for (const Bytes& padded : {Bytes{0x80, 0x00}, Bytes{0xff, 0x80, 0x00}}) {
    ByteReader r(padded);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_FALSE(r.finish().ok());
  }
  // Minimal forms still read, the 64-bit one with a final byte of 1.
  Bytes top(9, 0xff);
  top.push_back(0x01);
  const std::pair<Bytes, std::uint64_t> minimal[] = {
      {{0x00}, 0},
      {{0x7f}, 0x7f},
      {{0x80, 0x01}, 0x80},
      {top, std::numeric_limits<std::uint64_t>::max()},
  };
  for (const auto& [bytes, value] : minimal) {
    ByteReader r(bytes);
    EXPECT_EQ(r.varint(), value);
    EXPECT_TRUE(r.finish().ok());
  }
}

TEST(ByteReader, FirstFailureSticksAndLaterReadsAreZero) {
  ByteWriter w;
  w.u8(7);
  w.str("tail");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  (void)r.u64();  // 5 bytes left: fails
  ASSERT_FALSE(r.ok());
  const std::size_t at = r.position();
  EXPECT_EQ(at, 1u);  // the failed read consumed nothing
  // Reads that would fit now return zero values and consume nothing.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.strings().empty());
  EXPECT_EQ(r.fixed<2>(), (std::array<std::uint8_t, 2>{}));
  EXPECT_EQ(r.position(), at);
  // Only the first failure is kept, and finish() reports it.
  r.fail(util::make_error(util::ErrorCode::kNotFound, "later"));
  util::Status status = r.finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_NE(status.error().message.find("truncated"), std::string::npos)
      << status.error().message;
}

TEST(ByteReader, FinishRefusesBytesLeftOver) {
  Bytes data{1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.finish().ok());
  EXPECT_EQ(r.u8(), 2);
  EXPECT_TRUE(r.finish().ok());
  // A decoder's own failure sticks like a short read.
  r.fail(util::make_error(util::ErrorCode::kInvalidArgument, "bad tag"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.finish().error().message, "bad tag");
}

TEST(ByteRoundTrip, StringsAndBlobs) {
  ByteWriter w;
  w.str("");
  w.str("hello, UNICORE");
  w.blob(Bytes{1, 2, 3});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello, UNICORE");
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
}

TEST(ByteReader, CountRefusesMoreElementsThanBytesLeft) {
  ByteWriter w;
  w.varint(3);
  w.raw(Bytes{1, 2, 3});
  ByteReader fits(w.bytes());
  EXPECT_EQ(fits.count(), 3u);

  for (std::uint64_t forged : {std::uint64_t{4}, std::uint64_t{1} << 40,
                               std::uint64_t{1} << 62}) {
    ByteWriter bad;
    bad.varint(forged);
    bad.raw(Bytes{1, 2, 3});
    ByteReader r(bad.bytes());
    (void)r.count();
    EXPECT_FALSE(r.ok()) << forged;
  }
}

TEST(ByteRoundTrip, StringList) {
  const std::vector<std::string> list{"", "-O2", "input.dat"};
  ByteWriter w;
  w.strings(list);
  w.strings({});
  // The same bytes as a count followed by that many strings.
  ByteWriter by_hand;
  by_hand.varint(3);
  for (const std::string& s : list) by_hand.str(s);
  by_hand.varint(0);
  EXPECT_EQ(w.bytes(), by_hand.bytes());

  ByteReader r(w.bytes());
  EXPECT_EQ(r.strings(), list);
  EXPECT_TRUE(r.strings().empty());
  EXPECT_TRUE(r.done());

  Bytes forged{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40};  // 2^62
  ByteReader f(forged);
  (void)f.strings();
  EXPECT_FALSE(f.ok());
}

TEST(ByteReader, FixedReadsExactlyNBytes) {
  Bytes data{1, 2, 3, 4, 5};
  ByteReader r(data);
  EXPECT_EQ(r.fixed<3>(), (std::array<std::uint8_t, 3>{1, 2, 3}));
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.fixed<3>();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.position(), 3u);  // a refused read consumes nothing
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Bytes data{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(data), "0001abff");
  EXPECT_EQ(hex_decode("0001abff"), data);
  EXPECT_EQ(hex_decode("0001ABFF"), data);  // upper case accepted
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);    // bad digit
}

TEST(ConstantTimeEqual, Semantics) {
  Bytes a{1, 2, 3};
  Bytes b{1, 2, 3};
  Bytes c{1, 2, 4};
  Bytes d{1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(ConstantTimeEqual, DetectsDifferenceAtEveryPosition) {
  // The implementation accumulates a XOR over the full width with no
  // data-dependent branch, so a flipped bit at any offset — and any
  // combination of flipped bits, including ones that would cancel in a
  // sum — must be caught. This pins the semantics the MAC checks in
  // cipher open() and the channel handshake rely on.
  const Bytes tag(32, 0x5c);
  for (std::size_t pos = 0; pos < tag.size(); ++pos) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      Bytes other = tag;
      other[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(constant_time_equal(tag, other))
          << "byte " << pos << " bit " << int(bit);
    }
  }
  // Two differences that XOR to the same value at different offsets.
  Bytes twisted = tag;
  twisted[0] ^= 0x0f;
  twisted[31] ^= 0x0f;
  EXPECT_FALSE(constant_time_equal(tag, twisted));
}

}  // namespace
}  // namespace unicore::util
