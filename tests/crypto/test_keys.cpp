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
  // The primes a seed yields must not depend on how primality is tested.
  struct Recorded {
    std::uint64_t seed;
    std::uint64_t n;
    std::uint64_t d;
  };
  constexpr Recorded kRecorded[] = {
      {1, 10'991'657'933'896'763'759ULL, 4'589'403'352'607'696'225ULL},
      {7, 14'965'786'145'270'482'981ULL, 3'399'768'436'384'215'809ULL},
      {42, 8'193'070'091'120'381'869ULL, 6'810'410'593'089'868'589ULL},
      {1999, 11'955'829'247'889'360'887ULL, 331'472'934'839'708'849ULL},
  };
  for (const Recorded& recorded : kRecorded) {
    util::Rng rng(recorded.seed);
    PrivateKey key = generate_keypair(rng);
    EXPECT_EQ(key.pub.n, recorded.n) << "seed " << recorded.seed;
    EXPECT_EQ(key.d, recorded.d) << "seed " << recorded.seed;
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
