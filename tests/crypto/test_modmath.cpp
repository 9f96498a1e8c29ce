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

// ---- the key-prime search ---------------------------------------------------

// The strong probable-prime test to base a by definition, over powmod.
bool reference_strong(std::uint64_t n, std::uint64_t a) {
  std::uint64_t d = n - 1;
  int s = 0;
  for (; (d & 1) == 0; d >>= 1) ++s;
  std::uint64_t x = powmod(a, d, n);
  if (x == 1 || x == n - 1) return true;
  for (int j = 1; j < s; ++j) {
    x = mulmod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}

/// Odd candidates in (2^31, 2^32), small factors included.
std::vector<std::uint32_t> odd_candidates(util::Rng& rng, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t& n : out)
    n = static_cast<std::uint32_t>(rng.next() >> 32) | 0x8000'0001u;
  return out;
}

TEST(KeyPrimeSearch, Base2PassMatchesTheDefinitionForEveryBatchSize) {
  util::Rng rng(41);
  for (int round = 0; round < 40; ++round) {
    for (std::size_t size = 1; size <= kKeyPrimeLanes; ++size) {
      const std::vector<std::uint32_t> batch = odd_candidates(rng, size);
      std::uint32_t expected = 0;
      for (std::size_t i = 0; i < size; ++i)
        expected |= std::uint32_t{reference_strong(batch[i], 2)} << i;
      EXPECT_EQ(strong_base2(batch), expected) << "size " << size;
      EXPECT_EQ(strong_base2_scalar(batch), expected) << "size " << size;
    }
  }
}

TEST(KeyPrimeSearch, Base2PassCountsOneOperationPerCandidate) {
  util::Rng rng(43);
  const std::vector<std::uint32_t> batch = odd_candidates(rng, 5);
  reset_powmod_ops();
  (void)strong_base2(batch);
  EXPECT_EQ(powmod_ops(), 5u);
  (void)strong_bases_7_61(batch[0], batch[1]);
  EXPECT_EQ(powmod_ops(), 9u);
}

TEST(KeyPrimeSearch, RejectsOutOfRangeCandidates) {
  const std::vector<std::uint32_t> too_many(kKeyPrimeLanes + 1, 0x8000'0001u);
  EXPECT_THROW(strong_base2(too_many), std::invalid_argument);
  const std::uint32_t even[] = {0x8000'0002u};
  EXPECT_THROW(strong_base2_scalar(even), std::invalid_argument);
  EXPECT_THROW(strong_bases_7_61(0x7fff'ffffu, 0x8000'0001u),
               std::invalid_argument);
  EXPECT_EQ(strong_base2({}), 0u);
}

TEST(KeyPrimeSearch, AStrongPseudoprimeToBase2PassesTheBatchAndNothingElse) {
  // 3,215,031,751 = 151 * 751 * 28,351: a strong pseudoprime to 2, 3, 5
  // and 7, without a factor up to 37, among ordinary candidates.
  constexpr std::uint32_t kPseudoprime = 3'215'031'751u;
  ASSERT_EQ(151ULL * 751ULL * 28'351ULL, kPseudoprime);
  ASSERT_GT(kPseudoprime, 1ULL << 31);
  for (std::uint32_t p : {3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u, 29u, 31u, 37u})
    ASSERT_NE(kPseudoprime % p, 0u) << p;
  for (std::uint64_t a : {2u, 3u, 5u, 7u})
    ASSERT_TRUE(reference_strong(kPseudoprime, a)) << a;
  ASSERT_FALSE(reference_strong(kPseudoprime, 61));

  util::Rng rng(47);
  std::vector<std::uint32_t> batch = odd_candidates(rng, kKeyPrimeLanes);
  batch[5] = kPseudoprime;
  batch[6] = 4'294'967'291u;  // the largest 32-bit prime
  EXPECT_TRUE(strong_base2(batch) >> 5 & 1);
  EXPECT_TRUE(strong_base2_scalar(batch) >> 5 & 1);
  EXPECT_TRUE(strong_base2(batch) >> 6 & 1);
  // Base 61 stops it, in either chain pair, as is_prime stops it.
  EXPECT_EQ(strong_bases_7_61(kPseudoprime, 4'294'967'291u), 0b10u);
  EXPECT_EQ(strong_bases_7_61(4'294'967'291u, kPseudoprime), 0b01u);
  EXPECT_FALSE(is_prime(kPseudoprime));
}

TEST(KeyPrimeSearch, FinishingAgreesWithIsPrimeOnBase2Passers) {
  // Strong pseudoprimes to base 2 just above 2^31: composites the batch
  // lets through, which bases 7 and 61 must stop.
  const std::uint32_t kPseudoprimes[] = {2'152'627'801u, 2'155'046'141u,
                                         2'155'416'251u, 2'172'155'819u,
                                         2'173'540'951u, 2'173'579'801u};
  for (std::uint32_t n : kPseudoprimes) {
    ASSERT_TRUE(reference_strong(n, 2)) << n;
    const std::uint32_t one[] = {n};
    EXPECT_EQ(strong_base2(one), 1u) << n;
    EXPECT_EQ(strong_bases_7_61(n, n), 0u) << n;
    EXPECT_FALSE(is_prime(n)) << n;
  }
  // And every base-2 passer of random batches, finished two at a time.
  util::Rng rng(53);
  std::vector<std::uint32_t> passers(std::begin(kPseudoprimes),
                                     std::end(kPseudoprimes));
  for (int round = 0; round < 100; ++round) {
    const std::vector<std::uint32_t> batch =
        odd_candidates(rng, kKeyPrimeLanes);
    const std::uint32_t passed = strong_base2(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (passed >> i & 1) passers.push_back(batch[i]);
  }
  ASSERT_GT(passers.size(), 100u);
  for (std::size_t i = 0; i + 1 < passers.size(); i += 2) {
    const std::uint32_t prime = strong_bases_7_61(passers[i], passers[i + 1]);
    EXPECT_EQ(prime & 1, std::uint32_t{is_prime(passers[i])}) << passers[i];
    EXPECT_EQ(prime >> 1, std::uint32_t{is_prime(passers[i + 1])})
        << passers[i + 1];
  }
}

TEST(KeyPrimeSearch, YieldsSuccessiveRandomPrimesAndCommitsTheStream) {
  for (std::uint64_t seed : {1u, 2u, 3u, 500u}) {
    util::Rng rng(seed);
    util::Rng reference(seed);
    KeyPrimeSearch search(rng);
    for (int i = 0; i < 60; ++i)
      ASSERT_EQ(search.next(), random_prime(reference, 32))
          << "seed " << seed << " prime " << i;
    util::Rng untouched(seed);
    EXPECT_EQ(rng.next(), untouched.next());  // nothing moves before commit
    rng = util::Rng(seed);
    search.commit();
    EXPECT_EQ(rng.next(), reference.next()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace unicore::crypto
