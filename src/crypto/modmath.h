// 64-bit modular arithmetic: the number theory underneath the toy RSA
// and Diffie–Hellman primitives (see DESIGN.md §2 for the substitution
// rationale — protocol logic is real, only the key size is scaled down).
#pragma once

#include <cstdint>

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

}  // namespace unicore::crypto
