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
}  // namespace

std::uint64_t powmod_ops() { return g_powmod_ops; }

void reset_powmod_ops() { g_powmod_ops = 0; }

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  ++g_powmod_ops;
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
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
  // Extended Euclid over signed 128-bit to tolerate the intermediate
  // negative coefficients.
  __int128 t = 0, new_t = 1;
  __int128 r = m, new_r = a % m;
  while (new_r != 0) {
    __int128 q = r / new_r;
    __int128 tmp = t - q * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - q * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (r != 1) return 0;  // not invertible
  if (t < 0) t += m;
  return static_cast<std::uint64_t>(t);
}

namespace {
// Witness check for Miller–Rabin.
bool witness_composite(std::uint64_t a, std::uint64_t d, int r,
                       std::uint64_t n) {
  std::uint64_t x = powmod(a, d, n);
  if (x == 1 || x == n - 1) return false;
  for (int i = 1; i < r; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}
}  // namespace

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
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
  for (std::uint64_t a : witnesses) {
    if (a % n == 0) continue;  // n = 61: a multiple of n proves nothing
    if (witness_composite(a, d, r, n)) return false;
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
