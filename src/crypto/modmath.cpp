#include "crypto/modmath.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#define UNICORE_MODMATH_X86 1
#include <immintrin.h>
#endif

namespace unicore::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(a) * b % m);
}

namespace {

std::uint64_t g_powmod_ops = 0;

// The inverse of an odd number modulo 2^64 by Newton iteration: an odd
// m is its own inverse modulo 8, and each step doubles the number of
// correct low bits (3, 6, 12, 24, 48, 96).
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
  std::uint64_t inverse = odd;
  for (int i = 0; i < 5; ++i) inverse *= 2 - odd * inverse;
  return inverse;
}

// Arithmetic modulo an odd m in Montgomery form with R = 2^64: a stands
// for a * R mod m, and a product costs three 64-bit multiplications
// instead of a 128-by-64 division.
class Montgomery {
 public:
  explicit Montgomery(std::uint64_t m)
      : m_(m), inverse_(inverse_mod_2_64(m)), one_((0 - m) % m) {
    // R^2 mod m, in 64-bit arithmetic while R mod m < 2^32.
    r2_ = m < (1ULL << 32)
              ? one_ * one_ % m
              : static_cast<std::uint64_t>(static_cast<__uint128_t>(one_) *
                                           one_ % m);
  }

  std::uint64_t one() const { return one_; }
  std::uint64_t minus_one() const { return m_ - one_; }

  /// Montgomery form of a < m.
  std::uint64_t to(std::uint64_t a) const { return mul(a, r2_); }
  std::uint64_t from(std::uint64_t a) const { return reduce(a); }

  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return reduce(static_cast<__uint128_t>(a) * b);
  }

  /// base^exp for a base in Montgomery form, by square-and-multiply.
  std::uint64_t pow(std::uint64_t base, std::uint64_t exp) const {
    std::uint64_t result = one_;
    for (; exp > 0; exp >>= 1) {
      if (exp & 1) result = mul(result, base);
      base = mul(base, base);
    }
    return result;
  }

 private:
  // t * R^-1 mod m for t < m * R. With q = t * m^-1 mod R, t and q * m
  // agree in their low words, so t - q * m is an exact multiple of R in
  // (-m * R, m * R): the difference of the high words, plus m when it
  // borrows. Subtracting keeps every step inside 128 bits for any odd m.
  std::uint64_t reduce(__uint128_t t) const {
    const std::uint64_t q = static_cast<std::uint64_t>(t) * inverse_;
    const auto qm_high = static_cast<std::uint64_t>(
        static_cast<__uint128_t>(q) * m_ >> 64);
    const auto t_high = static_cast<std::uint64_t>(t >> 64);
    const std::uint64_t difference = t_high - qm_high;
    return t_high < qm_high ? difference + m_ : difference;
  }

  std::uint64_t m_;
  std::uint64_t inverse_;  // m^-1 mod R
  std::uint64_t one_;      // R mod m
  std::uint64_t r2_;       // R^2 mod m
};

}  // namespace

std::uint64_t powmod_ops() { return g_powmod_ops; }

void reset_powmod_ops() { g_powmod_ops = 0; }

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  ++g_powmod_ops;
  if (m == 1) return 0;
  base %= m;
  if (m & 1) {
    const Montgomery mont(m);
    return mont.from(mont.pow(mont.to(base), exp));
  }
  std::uint64_t result = 1;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t gcd(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t modinv(std::uint64_t a, std::uint64_t m) {
  // Extended Euclid over the magnitudes of a's coefficients: they
  // alternate in sign, so each new magnitude is |t[k-1]| + q * |t[k]|,
  // bounded by m, and t[k] is negative exactly when k is even.
  std::uint64_t r = m, new_r = a % m;
  std::uint64_t t = 0, new_t = 1;
  bool negative = true;  // k = 0
  while (new_r != 0) {
    const std::uint64_t q = r / new_r;
    const std::uint64_t next_r = r - q * new_r;
    r = new_r;
    new_r = next_r;
    const std::uint64_t next_t = t + q * new_t;
    t = new_t;
    new_t = next_t;
    negative = !negative;
  }
  if (r != 1) return 0;  // not invertible
  return negative && t != 0 ? m - t : t;
}

namespace {

// Trial division by multiplication: for an odd prime p, p divides n
// exactly when n * p^-1 mod 2^64 is at most (2^64 - 1) / p.
struct SmallPrime {
  std::uint64_t value;
  std::uint64_t inverse;  // value^-1 mod 2^64
  std::uint64_t limit;    // (2^64 - 1) / value
};

constexpr SmallPrime small_prime(std::uint64_t p) {
  return {p, inverse_mod_2_64(p), ~std::uint64_t{0} / p};
}

constexpr SmallPrime kOddSmallPrimes[] = {
    small_prime(3),  small_prime(5),  small_prime(7),  small_prime(11),
    small_prime(13), small_prime(17), small_prime(19), small_prime(23),
    small_prime(29), small_prime(31), small_prime(37)};

// Miller–Rabin witness check for a base 0 < a < n; one modular
// exponentiation, counted as such.
bool witness_composite(const Montgomery& mont, std::uint64_t a,
                       std::uint64_t d, int r) {
  ++g_powmod_ops;
  std::uint64_t x = mont.pow(mont.to(a), d);
  if (x == mont.one() || x == mont.minus_one()) return false;
  for (int i = 1; i < r; ++i) {
    x = mont.mul(x, x);
    if (x == mont.minus_one()) return false;
  }
  return true;
}

}  // namespace

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  if ((n & 1) == 0) return n == 2;
  for (const SmallPrime& p : kOddSmallPrimes) {
    if (n == p.value) return true;
    if (n * p.inverse <= p.limit) return false;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // Both witness sets are proven exact in their range: {2, 7, 61} for
  // n < 4,759,123,141 (Jaeschke 1993), which covers every 32-bit key
  // prime candidate; the primes up to 37 for n < 3.3e24. The bound is
  // strict: 4,759,123,141 itself is a strong pseudoprime to 2, 7 and 61.
  static constexpr std::uint64_t kBelowBound[] = {2, 7, 61};
  static constexpr std::uint64_t kAbove[] = {2,  3,  5,  7,  11, 13,
                                             17, 19, 23, 29, 31, 37};
  std::span<const std::uint64_t> witnesses =
      n < 4'759'123'141ULL ? std::span<const std::uint64_t>(kBelowBound)
                           : std::span<const std::uint64_t>(kAbove);
  const Montgomery mont(n);
  for (std::uint64_t a : witnesses) {
    const std::uint64_t base = a % n;
    if (base == 0) continue;  // n = 61: a multiple of n proves nothing
    if (witness_composite(mont, base, d, r)) return false;
  }
  return true;
}

std::uint64_t random_prime(util::Rng& rng, int bits) {
  if (bits < 2 || bits > 63)
    throw std::invalid_argument("random_prime: bits out of range");
  for (;;) {
    std::uint64_t candidate = rng.next();
    candidate >>= (64 - bits);
    candidate |= 1ULL << (bits - 1);  // force the top bit
    candidate |= 1;                   // force odd
    if (is_prime(candidate)) return candidate;
  }
}

// ---- The key-prime search --------------------------------------------------
//
// Every candidate n lies in (2^31, 2^32), so Montgomery form can use
// R = 2^32: a product fits 64 bits, and R mod n is 2^32 - n.

namespace {

constexpr std::uint32_t kTopBit = 0x8000'0000;

// Arithmetic modulo an odd n in (2^31, 2^32) in Montgomery form with
// R = 2^32: a product is one 32-by-32-bit multiplication and two more
// for the reduction, all inside 64 bits.
struct Montgomery32 {
  explicit Montgomery32(std::uint32_t modulus)
      : n(modulus),
        inverse(static_cast<std::uint32_t>(inverse_mod_2_64(modulus))),
        one(0 - modulus) {}

  std::uint32_t minus_one() const { return n - one; }
  std::uint32_t to(std::uint32_t a) const {
    return static_cast<std::uint32_t>((std::uint64_t{a} << 32) % n);
  }
  std::uint32_t twice(std::uint32_t a) const {
    const std::uint64_t doubled = std::uint64_t{a} << 1;
    return static_cast<std::uint32_t>(doubled >= n ? doubled - n : doubled);
  }
  // As Montgomery::reduce, a word narrower.
  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t t = std::uint64_t{a} * b;
    const std::uint32_t q = static_cast<std::uint32_t>(t) * inverse;
    const auto t_high = static_cast<std::uint32_t>(t >> 32);
    const auto qn_high = static_cast<std::uint32_t>(std::uint64_t{q} * n >> 32);
    const std::uint32_t difference = t_high - qn_high;
    return t_high < qn_high ? difference + n : difference;
  }

  std::uint32_t n;
  std::uint32_t inverse;  // n^-1 mod R
  std::uint32_t one;      // R mod n
};

// The base-2 pass over kKeyPrimeLanes candidates. n - 1 has its top bit
// set, so the left-to-right exponentiation starts from 2^1 and takes
// bits 30..1 of n - 1: square, and double where the bit is set. After
// bit i, x = 2^((n-1) >> i). With s the trailing zero bits of n - 1,
// the strong test passes when x = 1 at i = s or x = -1 at some i <= s;
// bit 0 is never needed. `exponent` holds n - 1 shifted so that bit i
// is its top bit: the low i bits are zero exactly when i <= s, and bit
// i is the only one set exactly when i = s.
std::uint32_t strong_base2_portable(const std::uint32_t* candidates) {
  std::uint32_t passed = 0;
  for (std::size_t lane = 0; lane < kKeyPrimeLanes; ++lane) {
    const Montgomery32 mont(candidates[lane]);
    std::uint64_t exponent = std::uint64_t{mont.n - 1} << 32;
    std::uint32_t x = mont.twice(mont.one);
    bool pass = false;
    for (int i = 30; i >= 1; --i) {
      x = mont.mul(x, x);
      exponent <<= 1;
      const std::uint32_t doubled = mont.twice(x);
      x = exponent >> 63 ? doubled : x;
      const bool tail = exponent << 1 == 0;
      const bool at_s = exponent == std::uint64_t{kTopBit} << 32;
      pass |= (tail & (x == mont.minus_one())) | (at_s & (x == mont.one));
    }
    passed |= std::uint32_t{pass} << lane;
  }
  return passed;
}

#ifdef UNICORE_MODMATH_X86
// The same pass in AVX2: four candidates per register, each in the low
// half of a 64-bit lane, so that _mm256_mul_epu32 forms the 64-bit
// products. Every lane runs every step; the exponent bits and the
// strong test act through lane masks.
#define UNICORE_AVX2 __attribute__((target("avx2")))
#define UNICORE_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

struct Avx2Lanes {
  __m256i n, inverse, one, minus_one, x, exponent, passed;
};

/// `negative` where `mask` is negative, else `otherwise`.
UNICORE_AVX2_INLINE __m256i select_negative(__m256i mask, __m256i negative,
                                            __m256i otherwise) {
  return _mm256_castpd_si256(_mm256_blendv_pd(_mm256_castsi256_pd(otherwise),
                                               _mm256_castsi256_pd(negative),
                                               _mm256_castsi256_pd(mask)));
}

/// x mod n for x in [0, 2n).
UNICORE_AVX2_INLINE __m256i reduce_once_avx2(__m256i x, __m256i n) {
  const __m256i reduced = _mm256_sub_epi64(x, n);
  return select_negative(reduced, x, reduced);
}

UNICORE_AVX2_INLINE __m256i square_avx2(__m256i x, __m256i n,
                                        __m256i inverse) {
  const __m256i t = _mm256_mul_epu32(x, x);
  const __m256i t_high = _mm256_srli_epi64(t, 32);
  const __m256i q = _mm256_mul_epu32(t, inverse);
  const __m256i qn_high = _mm256_srli_epi64(_mm256_mul_epu32(q, n), 32);
  const __m256i difference = _mm256_sub_epi64(t_high, qn_high);
  return select_negative(
      difference, _mm256_sub_epi64(_mm256_add_epi64(t_high, n), qn_high),
      difference);
}

/// One bit of n - 1; `kTail` adds the strong test's checks, which no
/// lane needs while i exceeds every lane's s.
template <bool kTail>
UNICORE_AVX2_INLINE void step_avx2(Avx2Lanes& l) {
  l.exponent = _mm256_slli_epi64(l.exponent, 1);
  const __m256i bit =
      _mm256_cmpgt_epi64(_mm256_setzero_si256(), l.exponent);
  l.x = square_avx2(l.x, l.n, l.inverse);
  l.x = reduce_once_avx2(_mm256_add_epi64(l.x, _mm256_and_si256(l.x, bit)),
                         l.n);
  if constexpr (kTail) {
    const __m256i tail = _mm256_cmpeq_epi64(_mm256_slli_epi64(l.exponent, 1),
                                            _mm256_setzero_si256());
    const __m256i at_s = _mm256_cmpeq_epi64(
        l.exponent, _mm256_set1_epi64x(std::numeric_limits<std::int64_t>::min()));
    const __m256i pass = _mm256_or_si256(
        _mm256_and_si256(tail, _mm256_cmpeq_epi64(l.x, l.minus_one)),
        _mm256_and_si256(at_s, _mm256_cmpeq_epi64(l.x, l.one)));
    l.passed = _mm256_or_si256(l.passed, pass);
  }
}

UNICORE_AVX2 std::uint32_t strong_base2_avx2(const std::uint32_t* candidates) {
  constexpr std::size_t kRegisters = kKeyPrimeLanes / 4;
  // The largest s of the batch: the highest bit of the OR of every
  // n - 1's lowest set bit.
  std::uint32_t lowest_bits = 0;
  for (std::size_t lane = 0; lane < kKeyPrimeLanes; ++lane) {
    const std::uint32_t n_minus_1 = candidates[lane] - 1;
    lowest_bits |= n_minus_1 & (0 - n_minus_1);
  }
  const int tail_from = std::bit_width(lowest_bits) - 1;

  Avx2Lanes lanes[kRegisters];
  for (std::size_t k = 0; k < kRegisters; ++k) {
    Avx2Lanes& l = lanes[k];
    l.n = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(candidates + 4 * k)));
    // n^-1 mod 2^32: 3n xor 2 is right in its low 5 bits, and each
    // Newton step doubles that.
    __m256i inverse = _mm256_xor_si256(
        _mm256_add_epi64(l.n, _mm256_add_epi64(l.n, l.n)),
        _mm256_set1_epi64x(2));
    for (int i = 0; i < 3; ++i)
      inverse = _mm256_mul_epu32(
          inverse, _mm256_sub_epi64(_mm256_set1_epi64x(2),
                                    _mm256_mul_epu32(l.n, inverse)));
    l.inverse = inverse;
    l.one = _mm256_sub_epi64(_mm256_set1_epi64x(std::int64_t{1} << 32), l.n);
    l.minus_one = _mm256_sub_epi64(l.n, l.one);
    l.x = reduce_once_avx2(_mm256_add_epi64(l.one, l.one), l.n);
    l.exponent =
        _mm256_slli_epi64(_mm256_sub_epi64(l.n, _mm256_set1_epi64x(1)), 32);
    l.passed = _mm256_setzero_si256();
  }
  // Unrolled, so that every register's chain stays in registers and
  // the chains overlap.
  int i = 30;
  for (; i > tail_from; --i)
#pragma GCC unroll 4
    for (Avx2Lanes& l : lanes) step_avx2<false>(l);
  for (; i >= 1; --i)
#pragma GCC unroll 4
    for (Avx2Lanes& l : lanes) step_avx2<true>(l);

  std::uint32_t passed = 0;
  for (std::size_t k = 0; k < kRegisters; ++k)
    passed |= static_cast<std::uint32_t>(_mm256_movemask_pd(
                  _mm256_castsi256_pd(lanes[k].passed)))
              << (4 * k);
  return passed;
}
#endif  // UNICORE_MODMATH_X86

using Base2Pass = std::uint32_t (*)(const std::uint32_t*);

// Chosen once, as sha256.cpp chooses SHA-NI.
Base2Pass base2_pass() {
  static const Base2Pass pass = [] {
#ifdef UNICORE_MODMATH_X86
    if (__builtin_cpu_supports("avx2")) return &strong_base2_avx2;
#endif
    return &strong_base2_portable;
  }();
  return pass;
}

/// Runs `pass` over up to kKeyPrimeLanes candidates, the unused lanes
/// filled with a copy of the first.
std::uint32_t run_base2(Base2Pass pass, std::span<const std::uint32_t> n) {
  if (n.size() > kKeyPrimeLanes)
    throw std::invalid_argument("strong_base2: more than kKeyPrimeLanes");
  for (std::uint32_t candidate : n)
    if (candidate <= kTopBit || (candidate & 1) == 0)
      throw std::invalid_argument("strong_base2: n not odd in (2^31, 2^32)");
  if (n.empty()) return 0;
  std::array<std::uint32_t, kKeyPrimeLanes> lanes;
  lanes.fill(n[0]);
  std::copy(n.begin(), n.end(), lanes.begin());
  g_powmod_ops += n.size();
  return pass(lanes.data()) & static_cast<std::uint32_t>((1ULL << n.size()) - 1);
}

// Trial division of a 32-bit candidate without a branch: every test
// runs, in 32-bit words, where p^-1 and (2^32 - 1) / p are immediates.
// It stops at 13: each further prime removes fewer candidates than its
// test costs in draws, and sieving to 37 measured slower (SECURITY.md).
constexpr std::size_t kKeySievePrimes = 5;  // 3, 5, 7, 11, 13

bool no_small_factor(std::uint32_t n) {
  bool survives = true;
#pragma GCC unroll 5
  for (std::size_t i = 0; i < kKeySievePrimes; ++i) {
    const auto inverse = static_cast<std::uint32_t>(kOddSmallPrimes[i].inverse);
    const auto limit =
        static_cast<std::uint32_t>(0xffff'ffffu / kOddSmallPrimes[i].value);
    survives &= n * inverse > limit;
  }
  return survives;
}

// The strong tests to bases 7 and 61 of two candidates, as four
// independent chains that overlap their products' latency. The two
// exponents differ, so no chain branches on its bits: each takes d two
// bits at a time, squares twice and multiplies by base^digit from a
// table whose entry 0 is 1. Bit c of the result is set when candidate c
// passes both.
std::uint32_t strong_7_61(std::uint32_t n0, std::uint32_t n1) {
  g_powmod_ops += 4;
  constexpr int kChains = 4;  // candidate c / 2, base kBases[c % 2]
  constexpr std::uint32_t kBases[] = {7, 61};
  const Montgomery32 mont[] = {Montgomery32(n0), Montgomery32(n1)};
  int s[2];
  std::uint32_t d[2];
  for (int c = 0; c < 2; ++c) {
    s[c] = std::countr_zero(mont[c].n - 1);
    d[c] = (mont[c].n - 1) >> s[c];
  }
  std::uint32_t power[kChains][4], x[kChains];
  for (int c = 0; c < kChains; ++c) {
    const Montgomery32& m = mont[c / 2];
    power[c][0] = m.one;
    power[c][1] = m.to(kBases[c % 2]);
    power[c][2] = m.mul(power[c][1], power[c][1]);
    power[c][3] = m.mul(power[c][2], power[c][1]);
    x[c] = power[c][d[c / 2] >> 30];  // d < 2^31
  }
  for (int shift = 28; shift >= 0; shift -= 2)
#pragma GCC unroll 4
    for (int c = 0; c < kChains; ++c) {
      const Montgomery32& m = mont[c / 2];
      const std::uint32_t squared = m.mul(x[c], x[c]);
      x[c] = m.mul(m.mul(squared, squared), power[c][(d[c / 2] >> shift) & 3]);
    }
  // x = base^d: passes at 1 or -1, or at -1 after j < s squarings.
  bool pass[kChains];
  for (int c = 0; c < kChains; ++c)
    pass[c] = x[c] == mont[c / 2].one || x[c] == mont[c / 2].minus_one();
  for (int j = 1; j < std::max(s[0], s[1]); ++j)
#pragma GCC unroll 4
    for (int c = 0; c < kChains; ++c) {
      const Montgomery32& m = mont[c / 2];
      x[c] = m.mul(x[c], x[c]);
      pass[c] |= (j < s[c / 2]) & (x[c] == m.minus_one());
    }
  return std::uint32_t{pass[0] && pass[1]} |
         std::uint32_t{pass[2] && pass[3]} << 1;
}

}  // namespace

std::uint32_t strong_base2(std::span<const std::uint32_t> n) {
  return run_base2(base2_pass(), n);
}

std::uint32_t strong_base2_scalar(std::span<const std::uint32_t> n) {
  return run_base2(&strong_base2_portable, n);
}

std::uint32_t strong_bases_7_61(std::uint32_t n0, std::uint32_t n1) {
  for (std::uint32_t n : {n0, n1})
    if (n <= kTopBit || (n & 1) == 0)
      throw std::invalid_argument(
          "strong_bases_7_61: n not odd in (2^31, 2^32)");
  return strong_7_61(n0, n1);
}

void KeyPrimeSearch::refill() {
  // random_prime(rng, 32)'s candidates: a draw's top 32 bits with the
  // top and the low bit set. Each is written to the next free slot,
  // which only a survivor claims.
  std::size_t count = 0;
  while (count < kKeyPrimeLanes) {
    const auto candidate =
        static_cast<std::uint32_t>(ahead_.next() >> 32) | kTopBit | 1;
    ++drawn_;
    survivor_[count] = candidate;
    draw_[count] = drawn_;
    count += no_small_factor(candidate);
  }
  g_powmod_ops += kKeyPrimeLanes;
  pending_ = base2_pass()(survivor_.data());
}

std::uint64_t KeyPrimeSearch::next() {
  // Every lane in primes_ precedes every lane in pending_: survivors
  // are finished two at a time, lowest lanes first.
  while (primes_ == 0) {
    while (pending_ == 0) refill();
    const int first = std::countr_zero(pending_);
    pending_ &= pending_ - 1;
    const int second = pending_ == 0 ? first : std::countr_zero(pending_);
    pending_ &= pending_ - 1;
    const std::uint32_t prime = strong_7_61(survivor_[first], survivor_[second]);
    primes_ |= (prime & 1) << first | (prime >> 1) << second;
  }
  const int lane = std::countr_zero(primes_);
  primes_ &= primes_ - 1;
  taken_ = draw_[lane];
  return survivor_[lane];
}

void KeyPrimeSearch::commit() {
  for (; committed_ < taken_; ++committed_) rng_.next();
}

}  // namespace unicore::crypto
