// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the single hash primitive of the security architecture:
// certificate fingerprints and signatures, HMAC record protection, the
// CTR keystream, and content checksums for staged files.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace unicore::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(util::ByteView data);
  Sha256& update(std::string_view s) {
    return update(util::ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                                 s.size()));
  }

  /// Finishes the hash; the context must not be reused afterwards.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot convenience.
Digest sha256(util::ByteView data);
Digest sha256(std::string_view s);

/// XORs `data` with the SHA-256 counter keystream over `prefix`: bytes
/// 32i..32i+31 of the stream are sha256(prefix || counter i), the 40-byte
/// prefix followed by i as 8 big-endian bytes. Each 48-byte message pads
/// into one compression block, so the backend patches only the counter
/// per block; the hardware path computes two counters per pass and XORs
/// the digests into `data` straight from its registers. Keeps no mutable
/// state, so concurrent calls are safe.
void sha256_ctr_xor(const std::uint8_t prefix[40], std::uint8_t* data,
                    std::size_t size);

/// True when the process selected the hardware (SHA-NI) backend at
/// startup. Both backends produce bit-identical digests and keystreams;
/// this only reports which one is active (benchmarks record it in their
/// context).
bool sha256_hardware_accelerated();

/// Forces the portable backend (false) or re-runs hardware detection
/// (true); the keystream follows the same choice. Exists so tests can
/// cross-check both backends on the same machine.
void set_sha256_acceleration(bool enabled);

/// Digest as a Bytes value (for wire formats).
util::Bytes digest_bytes(const Digest& d);

/// First 8 bytes of the digest as a big-endian integer; used as the
/// to-be-signed representative in the toy RSA scheme.
std::uint64_t digest_prefix64(const Digest& d);

}  // namespace unicore::crypto
