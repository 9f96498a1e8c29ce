#include "crypto/modmath.h"

#include <span>
#include <stdexcept>

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

}  // namespace unicore::crypto
