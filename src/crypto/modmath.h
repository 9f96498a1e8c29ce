// 64-bit modular arithmetic: the number theory underneath the toy RSA
// and Diffie–Hellman primitives (see DESIGN.md §2 for the substitution
// rationale — protocol logic is real, only the key size is scaled down).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/rng.h"

namespace unicore::crypto {

/// (a * b) mod m without overflow.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m);

/// (base ^ exp) mod m by square-and-multiply: over Montgomery products
/// for odd m, over mulmod for even m.
std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

/// Running count of powmod invocations — every public-key operation
/// (RSA sign/verify, DH key generation and agreement) is one or more
/// modular exponentiations, so this is the "crypto operation" meter the
/// handshake benchmarks read to compare full vs resumed handshakes.
std::uint64_t powmod_ops();
void reset_powmod_ops();

/// Greatest common divisor.
std::uint64_t gcd(std::uint64_t a, std::uint64_t b);

/// Modular inverse of a mod m; returns 0 when gcd(a, m) != 1.
std::uint64_t modinv(std::uint64_t a, std::uint64_t m);

/// Deterministic Miller–Rabin, exact for all 64-bit integers.
bool is_prime(std::uint64_t n);

/// Uniform random prime with exactly `bits` bits (2 <= bits <= 63).
std::uint64_t random_prime(util::Rng& rng, int bits);

/// Candidates that one base-2 pass of the key-prime search tests.
inline constexpr std::size_t kKeyPrimeLanes = 16;

/// The strong probable-prime test to base 2 of up to kKeyPrimeLanes odd
/// n in (2^31, 2^32), in one pass: in AVX2 lanes when the CPU has them,
/// otherwise the same steps in scalar code. Bit i of the result is set
/// when n[i] passes. Each candidate counts as one powmod operation.
std::uint32_t strong_base2(std::span<const std::uint32_t> n);
/// The same pass in scalar code, as a CPU without AVX2 runs it.
std::uint32_t strong_base2_scalar(std::span<const std::uint32_t> n);

/// The strong probable-prime tests to bases 7 and 61 of two odd n in
/// (2^31, 2^32), run as four interleaved chains; bit c of the result is
/// set when n_c passes both. With base 2 they decide primality exactly
/// below 4,759,123,141. Counts four powmod operations.
std::uint32_t strong_bases_7_61(std::uint32_t n0, std::uint32_t n1);

/// The primes that successive random_prime(rng, 32) calls yield, in
/// order, found by a look-ahead search: it draws from a copy of `rng`,
/// trial-divides every candidate, and tests kKeyPrimeLanes survivors
/// to base 2 at a time before it finishes them with bases 7 and 61,
/// two at a time in draw order. `rng` itself moves only in commit().
class KeyPrimeSearch {
 public:
  explicit KeyPrimeSearch(util::Rng& rng) : rng_(rng), ahead_(rng) {}

  /// The next prime in draw order.
  std::uint64_t next();
  /// Leaves `rng` where the random_prime calls that yielded every prime
  /// so far would leave it: just after the last one's draw.
  void commit();

 private:
  /// Draws until kKeyPrimeLanes candidates survive trial division and
  /// tests them to base 2.
  void refill();

  util::Rng& rng_;
  util::Rng ahead_;
  std::uint32_t drawn_ = 0;      // draws from ahead_
  std::uint32_t taken_ = 0;      // draws up to the last prime returned
  std::uint32_t committed_ = 0;  // draws replayed on rng_
  std::uint32_t pending_ = 0;    // lanes that passed base 2, unfinished
  std::uint32_t primes_ = 0;     // lanes found prime, not yet returned
  std::array<std::uint32_t, kKeyPrimeLanes> survivor_{};
  std::array<std::uint32_t, kKeyPrimeLanes> draw_{};  // draws up to each
};

}  // namespace unicore::crypto
