#include "crypto/keys.h"

#include <gtest/gtest.h>

namespace unicore::crypto {
namespace {

TEST(Rsa, KeypairStructure) {
  util::Rng rng(1);
  PrivateKey key = generate_keypair(rng);
  EXPECT_TRUE(key.pub.valid());
  EXPECT_EQ(key.pub.e, 65537u);
  EXPECT_GE(key.pub.n, 1ULL << 62);  // two 32-bit primes with top bits set
  EXPECT_NE(key.d, 0u);
}

TEST(Rsa, KeypairsAtFixedSeedsMatchRecorded) {
  // The primes a seed yields must not depend on how primality is tested,
  // and the generator must leave the stream where it found the last
  // prime: the second pair and the next draw pin both.
  struct Recorded {
    std::uint64_t seed;
    std::uint64_t n;
    std::uint64_t d;
    std::uint64_t second_n;
    std::uint64_t second_d;
    std::uint64_t next_draw;
  };
  constexpr Recorded kRecorded[] = {
      {1, 10'991'657'933'896'763'759ULL, 4'589'403'352'607'696'225ULL,
       16'813'909'187'361'133'963ULL, 6'177'354'856'275'676'913ULL,
       7'285'265'299'121'834'259ULL},
      {7, 14'965'786'145'270'482'981ULL, 3'399'768'436'384'215'809ULL,
       7'916'306'449'309'971'649ULL, 209'935'465'448'660'137ULL,
       15'500'728'646'886'288'874ULL},
      {42, 8'193'070'091'120'381'869ULL, 6'810'410'593'089'868'589ULL,
       14'616'584'460'803'837'801ULL, 3'866'412'989'291'548'673ULL,
       7'360'099'428'760'650'964ULL},
      {1999, 11'955'829'247'889'360'887ULL, 331'472'934'839'708'849ULL,
       5'708'420'305'400'351'639ULL, 5'124'486'802'034'615'489ULL,
       7'795'808'674'470'869'350ULL},
  };
  for (const Recorded& recorded : kRecorded) {
    util::Rng rng(recorded.seed);
    PrivateKey key = generate_keypair(rng);
    EXPECT_EQ(key.pub.n, recorded.n) << "seed " << recorded.seed;
    EXPECT_EQ(key.d, recorded.d) << "seed " << recorded.seed;
    PrivateKey second = generate_keypair(rng);
    EXPECT_EQ(second.pub.n, recorded.second_n) << "seed " << recorded.seed;
    EXPECT_EQ(second.d, recorded.second_d) << "seed " << recorded.seed;
    EXPECT_EQ(rng.next(), recorded.next_draw) << "seed " << recorded.seed;
  }
}

// Key generation as successive random_prime(rng, 32) calls define it:
// a pair whose totient shares a factor with e is dropped whole, and the
// next pair starts from the following draw.
PrivateKey reference_keypair(util::Rng& rng) {
  constexpr std::uint64_t kPublicExponent = 65537;
  for (;;) {
    std::uint64_t p = random_prime(rng, 32);
    std::uint64_t q = random_prime(rng, 32);
    if (p == q) continue;
    std::uint64_t phi = (p - 1) * (q - 1);
    if (gcd(kPublicExponent, phi) != 1) continue;
    PrivateKey key;
    key.pub.n = p * q;
    key.pub.e = kPublicExponent;
    key.d = modinv(kPublicExponent, phi);
    return key;
  }
}

TEST(Rsa, KeypairsMatchSuccessiveRandomPrimes) {
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    util::Rng rng(seed);
    util::Rng reference(seed);
    for (int k = 0; k < 5; ++k) {
      PrivateKey key = generate_keypair(rng);
      PrivateKey expected = reference_keypair(reference);
      ASSERT_EQ(key.pub.n, expected.pub.n) << "seed " << seed << " key " << k;
      ASSERT_EQ(key.d, expected.d) << "seed " << seed << " key " << k;
      ASSERT_EQ(key.pub.e, expected.pub.e);
    }
    ASSERT_EQ(rng.next(), reference.next()) << "seed " << seed;
  }
}

TEST(Rsa, SignVerifyRoundTrip) {
  util::Rng rng(2);
  PrivateKey key = generate_keypair(rng);
  auto message = util::to_bytes("the network job supervisor");
  Signature sig = sign_message(key, message);
  EXPECT_TRUE(verify_message(key.pub, message, sig));
}

TEST(Rsa, VerifyFailsOnDifferentMessage) {
  util::Rng rng(3);
  PrivateKey key = generate_keypair(rng);
  Signature sig = sign_message(key, util::to_bytes("message A"));
  EXPECT_FALSE(verify_message(key.pub, util::to_bytes("message B"), sig));
}

TEST(Rsa, VerifyFailsWithWrongKey) {
  util::Rng rng(4);
  PrivateKey alice = generate_keypair(rng);
  PrivateKey bob = generate_keypair(rng);
  auto message = util::to_bytes("msg");
  Signature sig = sign_message(alice, message);
  EXPECT_FALSE(verify_message(bob.pub, message, sig));
}

TEST(Rsa, VerifyFailsOnTamperedSignature) {
  util::Rng rng(5);
  PrivateKey key = generate_keypair(rng);
  auto message = util::to_bytes("msg");
  Signature sig = sign_message(key, message);
  sig.value ^= 1;
  EXPECT_FALSE(verify_message(key.pub, message, sig));
}

TEST(Rsa, InvalidKeyNeverVerifies) {
  PublicKey invalid;  // n = 0
  EXPECT_FALSE(verify_message(invalid, util::to_bytes("m"), Signature{1}));
}

TEST(Rsa, ManyKeysManyMessagesProperty) {
  util::Rng rng(6);
  for (int k = 0; k < 10; ++k) {
    PrivateKey key = generate_keypair(rng);
    for (int m = 0; m < 10; ++m) {
      util::Bytes message = rng.bytes(1 + rng.below(200));
      Signature sig = sign_message(key, message);
      EXPECT_TRUE(verify_message(key.pub, message, sig));
      message[0] ^= 0xff;
      EXPECT_FALSE(verify_message(key.pub, message, sig));
    }
  }
}

TEST(DiffieHellman, SharedSecretAgrees) {
  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    DhKeyPair a = dh_generate(rng);
    DhKeyPair b = dh_generate(rng);
    EXPECT_EQ(dh_shared_secret(a, b.public_value),
              dh_shared_secret(b, a.public_value));
  }
}

TEST(DiffieHellman, DistinctPairsDistinctSecrets) {
  util::Rng rng(8);
  DhKeyPair a = dh_generate(rng);
  DhKeyPair b = dh_generate(rng);
  DhKeyPair c = dh_generate(rng);
  EXPECT_NE(dh_shared_secret(a, b.public_value),
            dh_shared_secret(a, c.public_value));
}

TEST(DiffieHellman, GroupParameters) {
  EXPECT_TRUE(is_prime(dh_prime()));
  EXPECT_GT(dh_generator(), 1u);
  util::Rng rng(9);
  DhKeyPair pair = dh_generate(rng);
  EXPECT_GT(pair.secret, 1u);
  EXPECT_LT(pair.secret, dh_prime() - 1);
  EXPECT_EQ(pair.public_value,
            powmod(dh_generator(), pair.secret, dh_prime()));
}

}  // namespace
}  // namespace unicore::crypto
