// X.509v3-style certificates, DER-encoded via the asn1 module.
//
// The certificate is the user's "unique UNICORE user identification"
// (§4): the gateway maps the subject distinguished name to a local login,
// the secure channel performs mutual authentication with server and user
// certificates, and signed software bundles carry developer certificates.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asn1/der.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::crypto {

/// X.500-style distinguished name; the subset of attributes the DFN-PCA
/// guidelines used for UNICORE certificates.
struct DistinguishedName {
  std::string country;              // C
  std::string organization;         // O
  std::string organizational_unit;  // OU
  std::string common_name;          // CN
  std::string email;                // E

  bool operator==(const DistinguishedName&) const = default;

  /// RFC 2253-style rendering, e.g. "C=DE, O=FZ Juelich, CN=Jane Doe".
  std::string to_string() const;

  asn1::Value to_asn1() const;
  static util::Result<DistinguishedName> from_asn1(const asn1::Value& v);

  /// The five attributes as length-prefixed strings, in field order:
  /// the form AJOs, user records and bundle manifests carry.
  void encode(util::ByteWriter& w) const;
  static DistinguishedName decode(util::ByteReader& r);
};

/// Key-usage bits carried in the certificate extension.
enum KeyUsage : std::uint8_t {
  kUsageDigitalSignature = 1 << 0,
  kUsageCertSign = 1 << 1,
  kUsageCodeSign = 1 << 2,   // signed applet bundles
  kUsageServerAuth = 1 << 3, // gateway / web server certificates
  kUsageClientAuth = 1 << 4, // user certificates
};

/// A v3 certificate. Timestamps are seconds since the simulation epoch.
struct Certificate {
  std::int32_t version = 3;
  std::uint64_t serial = 0;
  DistinguishedName issuer;
  DistinguishedName subject;
  std::int64_t not_before = 0;
  std::int64_t not_after = 0;
  PublicKey subject_key;
  std::uint8_t key_usage = 0;
  bool is_ca = false;
  Signature signature;  // issuer's signature over tbs_der()

  bool operator==(const Certificate&) const = default;

  /// DER encoding of the to-be-signed portion (everything but the
  /// signature); canonical, so it is also the signing input.
  util::Bytes tbs_der() const;

  /// Full DER encoding including the signature.
  util::Bytes der() const;
  static util::Result<Certificate> from_der(util::ByteView der);

  /// SHA-256 over the full DER encoding.
  Digest fingerprint() const;

  /// True when `issuer_key` verifies this certificate's signature.
  bool verify_signature(const PublicKey& issuer_key) const;

  bool valid_at(std::int64_t now) const {
    return now >= not_before && now <= not_after;
  }
  bool has_usage(std::uint8_t usage) const {
    return (key_usage & usage) == usage;
  }
};

/// Certificate plus matching private key — a complete identity.
struct Credential {
  Certificate certificate;
  PrivateKey key;
};

/// A signed certificate revocation list.
struct RevocationList {
  DistinguishedName issuer;
  std::int64_t issued_at = 0;
  std::vector<std::uint64_t> serials;  // sorted
  Signature signature;

  util::Bytes tbs_der() const;
  bool verify_signature(const PublicKey& issuer_key) const;
  bool contains(std::uint64_t serial) const;
};

/// Validation policy for TrustStore::validate.
struct ValidationOptions {
  std::int64_t now = 0;
  std::uint8_t required_usage = 0;
  std::size_t max_chain_depth = 4;
};

/// Trusted roots plus current CRLs; performs full chain validation.
class TrustStore {
 public:
  void add_root(Certificate root);
  /// Installs/replaces the CRL for its issuer. Rejected unless signed by
  /// a known root (or a root itself).
  util::Status add_crl(RevocationList crl);

  /// Validates `leaf`, chaining through `intermediates` to a trusted
  /// root. Checks signatures, validity windows, CA flags, key usage on
  /// the leaf, and revocation of every certificate in the chain.
  util::Status validate(const Certificate& leaf,
                        std::span<const Certificate> intermediates,
                        const ValidationOptions& options) const;

  const std::vector<Certificate>& roots() const { return roots_; }

  /// Bumped on every root or CRL change. Validation caches and session
  /// tickets stamp the generation they were minted under and treat a
  /// mismatch as "revalidate from scratch" — the invalidation hook that
  /// makes revocation take effect on already-warm fast paths.
  std::uint64_t generation() const { return generation_; }

 private:
  const Certificate* find_issuer(const DistinguishedName& name,
                                 std::span<const Certificate> pool) const;
  bool is_revoked(const Certificate& cert) const;

  std::vector<Certificate> roots_;
  std::vector<RevocationList> crls_;
  std::uint64_t generation_ = 1;
};

/// A certificate authority: issues certificates, maintains revocations,
/// and publishes signed CRLs. Models the DFN-PCA role of §5.2.
class CertificateAuthority {
 public:
  /// Creates a self-signed root valid for `validity_seconds` from `now`.
  CertificateAuthority(DistinguishedName name, util::Rng& rng,
                       std::int64_t now, std::int64_t validity_seconds);

  const Certificate& certificate() const { return credential_.certificate; }
  const Credential& credential() const { return credential_; }

  /// Issues a certificate for `subject_key`.
  Certificate issue(const DistinguishedName& subject,
                    const PublicKey& subject_key, std::int64_t now,
                    std::int64_t validity_seconds, std::uint8_t usage,
                    bool is_ca = false);

  /// Convenience: generates a keypair and issues over it.
  Credential issue_credential(const DistinguishedName& subject,
                              util::Rng& rng, std::int64_t now,
                              std::int64_t validity_seconds,
                              std::uint8_t usage);

  void revoke(std::uint64_t serial);
  bool is_revoked(std::uint64_t serial) const;

  /// Signed CRL as of `now`.
  RevocationList crl(std::int64_t now) const;

 private:
  Credential credential_;
  std::uint64_t next_serial_ = 2;  // serial 1 is the root itself
  std::vector<std::uint64_t> revoked_;
};

}  // namespace unicore::crypto
