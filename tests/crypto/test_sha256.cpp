#include "crypto/sha256.h"

#include <gtest/gtest.h>

namespace unicore::crypto {
namespace {

std::string hex(const Digest& d) { return util::hex_encode(d); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef";
  Digest one_shot = sha256(message);
  // Feed in every possible two-way split.
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 ctx;
    ctx.update(std::string_view(message).substr(0, split));
    ctx.update(std::string_view(message).substr(split));
    EXPECT_EQ(ctx.finish(), one_shot) << "split=" << split;
  }
}

TEST(Sha256, ExactBlockSizeInputs) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string message(n, 'x');
    Sha256 ctx;
    for (char c : message) ctx.update(std::string_view(&c, 1));
    EXPECT_EQ(ctx.finish(), sha256(message)) << "n=" << n;
  }
}

TEST(Sha256, DigestPrefix64BigEndian) {
  Digest d{};
  for (int i = 0; i < 8; ++i) d[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(digest_prefix64(d), 0x0102030405060708ULL);
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256, HardwareAndPortableBackendsAgree) {
  if (!sha256_hardware_accelerated())
    GTEST_SKIP() << "no SHA-NI on this machine";
  // Lengths that cover empty input, sub-block, the padding straddle
  // (55/56/64), multi-block, and a bulk buffer.
  std::vector<std::string> inputs;
  for (std::size_t n : {0u, 1u, 3u, 31u, 32u, 55u, 56u, 63u, 64u, 65u,
                        127u, 128u, 1000u, 100'000u})
    inputs.push_back(std::string(n, static_cast<char>('a' + n % 26)));
  std::vector<Digest> accelerated;
  for (const std::string& in : inputs) accelerated.push_back(sha256(in));

  set_sha256_acceleration(false);
  EXPECT_FALSE(sha256_hardware_accelerated());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(sha256(inputs[i]), accelerated[i])
        << "length " << inputs[i].size();
  set_sha256_acceleration(true);
  EXPECT_TRUE(sha256_hardware_accelerated());
}

// Every way of feeding a 200-byte message through update() — split at
// each offset from 0 to 130, so the first part ends at, before and after
// the 55/56/64/119/120 edges and the second runs over several full
// blocks — gives the one-shot digest, on both backends. The chained
// digest of every prefix of 0..130 bytes pins the padding of each length
// to the value recorded with the original byte-at-a-time padding.
void expect_splits_and_prefixes() {
  std::string message(200, '\0');
  for (std::size_t i = 0; i < message.size(); ++i)
    message[i] = static_cast<char>(i * 37 + 11);
  std::string_view view(message);
  Digest one_shot = sha256(view);
  EXPECT_EQ(hex(one_shot), "5e48d64839a8bff5e2471507af6a49f9990817df437857f4a2007df41266e1b5");
  for (std::size_t split = 0; split <= 130; ++split) {
    Sha256 ctx;
    ctx.update(view.substr(0, split));
    ctx.update(view.substr(split));
    EXPECT_EQ(ctx.finish(), one_shot) << "split=" << split;
  }
  Sha256 chain;
  for (std::size_t n = 0; n <= 130; ++n) {
    Digest prefix = sha256(view.substr(0, n));
    chain.update(util::ByteView(prefix.data(), prefix.size()));
  }
  EXPECT_EQ(hex(chain.finish()), "cec4c6d09a19510a15db5bcadc0491d8921c4ac138b9237e9b623d4c0998fb45");
}

TEST(Sha256, SplitsAndPrefixesMatchOnBothBackends) {
  expect_splits_and_prefixes();
  set_sha256_acceleration(false);
  expect_splits_and_prefixes();
  set_sha256_acceleration(true);
}

}  // namespace
}  // namespace unicore::crypto
