#include "crypto/keys.h"

namespace unicore::crypto {

std::string PublicKey::to_string() const {
  return "rsa(n=" + std::to_string(n) + ",e=" + std::to_string(e) + ")";
}

PrivateKey generate_keypair(util::Rng& rng) {
  constexpr std::uint64_t kPublicExponent = 65537;
  // The primes that successive random_prime(rng, 32) calls yield, taken
  // two at a time; a pair that makes no key is dropped whole, as those
  // calls would drop it.
  KeyPrimeSearch primes(rng);
  for (;;) {
    const std::uint64_t p = primes.next();
    const std::uint64_t q = primes.next();
    // e is prime, so it shares a factor with (p - 1)(q - 1) exactly
    // when it divides p - 1 or q - 1.
    if (p == q || (p - 1) % kPublicExponent == 0 ||
        (q - 1) % kPublicExponent == 0)
      continue;
    primes.commit();
    const std::uint64_t phi = (p - 1) * (q - 1);
    PrivateKey key;
    key.pub.n = p * q;  // < 2^64, no overflow
    key.pub.e = kPublicExponent;
    key.d = modinv(kPublicExponent, phi);
    return key;
  }
}

Signature sign_digest(const PrivateKey& key, const Digest& digest) {
  std::uint64_t h = digest_prefix64(digest) % key.pub.n;
  return Signature{powmod(h, key.d, key.pub.n)};
}

Signature sign_message(const PrivateKey& key, util::ByteView message) {
  return sign_digest(key, sha256(message));
}

bool verify_digest(const PublicKey& key, const Digest& digest,
                   const Signature& sig) {
  if (!key.valid()) return false;
  std::uint64_t h = digest_prefix64(digest) % key.n;
  return powmod(sig.value, key.e, key.n) == h;
}

bool verify_message(const PublicKey& key, util::ByteView message,
                    const Signature& sig) {
  return verify_digest(key, sha256(message), sig);
}

std::uint64_t dh_prime() {
  // Largest 64-bit prime: 2^64 - 59.
  return 0xffffffffffffffc5ULL;
}

std::uint64_t dh_generator() { return 5; }

DhKeyPair dh_generate(util::Rng& rng) {
  DhKeyPair pair;
  // Secret exponent in [2, p-2].
  pair.secret = 2 + rng.below(dh_prime() - 3);
  pair.public_value = powmod(dh_generator(), pair.secret, dh_prime());
  return pair;
}

std::uint64_t dh_shared_secret(const DhKeyPair& mine,
                               std::uint64_t peer_public) {
  return powmod(peer_public, mine.secret, dh_prime());
}

}  // namespace unicore::crypto
