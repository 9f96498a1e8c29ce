#include "crypto/modmath.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "crypto/keys.h"

namespace unicore::crypto {
namespace {

TEST(ModMath, MulmodNoOverflow) {
  std::uint64_t big = 0xfffffffffffffff0ULL;
  std::uint64_t m = 0xffffffffffffffc5ULL;
  // (big * big) mod m computed via __int128; sanity: result < m.
  EXPECT_LT(mulmod(big, big, m), m);
  EXPECT_EQ(mulmod(7, 9, 10), 3u);
  EXPECT_EQ(mulmod(0, 123, 7), 0u);
}

TEST(ModMath, PowmodKnownValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(3, 0, 7), 1u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  EXPECT_EQ(powmod(5, 3, 1), 0u);  // mod 1
  // Fermat: a^(p-1) = 1 mod p.
  std::uint64_t p = 1'000'000'007ULL;
  EXPECT_EQ(powmod(123456789, p - 1, p), 1u);
}

// Square-and-multiply over 128-bit remainders: the definition every
// powmod path, for odd and even moduli alike, must reproduce.
std::uint64_t reference_powmod(std::uint64_t base, std::uint64_t exp,
                               std::uint64_t m) {
  if (m == 1) return 0;
  const auto mul = [m](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(static_cast<__uint128_t>(a) * b % m);
  };
  std::uint64_t result = 1;
  base %= m;
  for (; exp > 0; exp >>= 1) {
    if (exp & 1) result = mul(result, base);
    base = mul(base, base);
  }
  return result;
}

TEST(ModMath, PowmodMatchesTheReferenceLoop) {
  util::Rng rng(2027);
  std::vector<std::uint64_t> moduli = {
      1, 3, 5, dh_prime(), 0xffffffffffffffc5ULL /* 2^64 - 59 */,
      ~std::uint64_t{0}, (1ULL << 32) - 5, (1ULL << 32) - 1, (1ULL << 32) + 1,
      // Even moduli.
      2, 1000, 1ULL << 32, 1ULL << 63, ~std::uint64_t{0} - 1};
  // RSA-sized moduli: products of two 32-bit primes above 2^63, the
  // largest 32-bit primes and those just above sqrt(2^63).
  for (auto [p, q] : {std::pair{4'294'967'291ULL, 4'294'967'279ULL},
                      std::pair{4'294'967'231ULL, 4'294'967'197ULL},
                      std::pair{4'294'967'189ULL, 3'037'000'507ULL},
                      std::pair{3'037'000'537ULL, 3'037'000'573ULL}}) {
    ASSERT_GE(p * q, 1ULL << 63);
    moduli.push_back(p * q);
  }
  for (int i = 0; i < 4; ++i) moduli.push_back(rng.next() & ~std::uint64_t{1});
  for (std::uint64_t m : moduli) {
    // Exponent 0, and bases at and beyond the modulus.
    for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1}, m - 1, m,
                               m + 1, ~std::uint64_t{0}}) {
      EXPECT_EQ(powmod(base, 0, m), reference_powmod(base, 0, m)) << m;
      EXPECT_EQ(powmod(base, 65537, m), reference_powmod(base, 65537, m))
          << base << "^65537 mod " << m;
    }
    for (int i = 0; i < 200; ++i) {
      std::uint64_t base = rng.next();
      std::uint64_t exp = i % 4 == 0 ? rng.below(64) : rng.next();
      ASSERT_EQ(powmod(base, exp, m), reference_powmod(base, exp, m))
          << base << "^" << exp << " mod " << m;
    }
  }
}

TEST(ModMath, PowmodCountsOneOperationPerExponentiation) {
  reset_powmod_ops();
  (void)powmod(5, 123, dh_prime());
  (void)powmod(2, 10, 1000);
  (void)powmod(7, 0, 1);
  EXPECT_EQ(powmod_ops(), 3u);
}

TEST(ModMath, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6u);
  EXPECT_EQ(gcd(17, 5), 1u);
  EXPECT_EQ(gcd(0, 5), 5u);
  EXPECT_EQ(gcd(5, 0), 5u);
  EXPECT_EQ(gcd(0, 0), 0u);
}

TEST(ModMath, ModinvInvertsWhenCoprime) {
  EXPECT_EQ(modinv(3, 7), 5u);  // 3*5 = 15 = 1 mod 7
  EXPECT_EQ(mulmod(modinv(65537, 4'294'836'224ULL), 65537,
                   4'294'836'224ULL),
            1u);
  EXPECT_EQ(modinv(4, 8), 0u);  // not invertible
}

TEST(ModMath, ModinvRandomizedProperty) {
  util::Rng rng(5);
  std::uint64_t m = 0xffffffffffffffc5ULL;  // prime
  for (int i = 0; i < 200; ++i) {
    std::uint64_t a = 1 + rng.below(m - 1);
    std::uint64_t inv = modinv(a, m);
    ASSERT_NE(inv, 0u);
    EXPECT_EQ(mulmod(a, inv, m), 1u);
  }
}

TEST(ModMath, IsPrimeSmall) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(37));
  EXPECT_FALSE(is_prime(91));  // 7*13
}

TEST(ModMath, IsPrimeCarmichaelNumbers) {
  // Fermat pseudoprimes that trip weak tests.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL,
                          6601ULL, 8911ULL, 41041ULL, 825265ULL})
    EXPECT_FALSE(is_prime(c)) << c;
}

TEST(ModMath, IsPrimeLargeKnown) {
  EXPECT_TRUE(is_prime(0xffffffffffffffc5ULL));  // largest 64-bit prime
  EXPECT_TRUE(is_prime(2'147'483'647ULL));       // 2^31 - 1
  EXPECT_FALSE(is_prime(0xffffffffffffffc5ULL - 2));
  EXPECT_TRUE(is_prime(1'000'000'007ULL));
  EXPECT_FALSE(is_prime(1'000'000'007ULL * 3));
}

TEST(ModMath, IsPrimeAgainstSieve) {
  // Cross-check every n < 2e6 against a sieve of Eratosthenes.
  constexpr std::uint64_t kLimit = 2'000'000;
  std::vector<bool> composite(kLimit, false);
  composite[0] = composite[1] = true;
  for (std::uint64_t p = 2; p * p < kLimit; ++p)
    if (!composite[p])
      for (std::uint64_t m = p * p; m < kLimit; m += p) composite[m] = true;
  for (std::uint64_t n = 0; n < kLimit; ++n)
    ASSERT_EQ(is_prime(n), !composite[n]) << n;
}

TEST(ModMath, IsPrimeRejectsStrongPseudoprimes) {
  // 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to the
  // bases 2, 3, 5 and 7; 4,759,123,141 = 48,781 * 97,561 is one to 2, 7
  // and 61, the smallest such number.
  EXPECT_FALSE(is_prime(3'215'031'751ULL));
  EXPECT_FALSE(is_prime(4'759'123'141ULL));
  EXPECT_EQ(48'781ULL * 97'561ULL, 4'759'123'141ULL);
  // Primes on either side of that bound.
  EXPECT_TRUE(is_prime(4'294'967'291ULL));  // largest 32-bit prime
  EXPECT_TRUE(is_prime(4'759'123'129ULL));
  EXPECT_TRUE(is_prime(4'759'123'151ULL));
}

class RandomPrimeBits : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrimeBits, HasExactBitLengthAndIsPrime) {
  util::Rng rng(31);
  int bits = GetParam();
  for (int i = 0; i < 10; ++i) {
    std::uint64_t p = random_prime(rng, bits);
    EXPECT_TRUE(is_prime(p));
    EXPECT_EQ(64 - __builtin_clzll(p), bits);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomPrimeBits,
                         ::testing::Values(8, 16, 24, 32, 48, 63));

TEST(ModMath, RandomPrimeRejectsBadBitCounts) {
  util::Rng rng(1);
  EXPECT_THROW(random_prime(rng, 1), std::invalid_argument);
  EXPECT_THROW(random_prime(rng, 64), std::invalid_argument);
}

}  // namespace
}  // namespace unicore::crypto
