// The gateway (Java security servlet of §4.2/§5.2): authenticates
// certificates against the site's trust store, maps them to local
// logins through the UUDB, runs optional site-specific authentication
// (smart cards / DCE), authorises account groups, and keeps an audit
// trail. Every consignment entering a Usite — from a user's JPA/JMC or
// from a peer NJS — passes through here.
//
// A Usite may front itself with N Gateway instances. The trust store,
// the UUDB, and the sharded authentication cache are shared state
// (every replica sees the same mappings, and a cache fill on one
// replica warms all of them); the audit trail and the endorsement memo
// stay per-instance.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ajo/job.h"
#include "crypto/x509.h"
#include "gateway/auth_cache.h"
#include "gateway/uudb.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace unicore::gateway {

/// Hook for "sites that require the use of smart cards or run DCE"
/// (§4.2): called after certificate validation with the AJO's opaque
/// site_security_info; a failing status rejects the consignment.
using SiteAuthHook = std::function<util::Status(
    const crypto::Certificate& cert, const std::string& site_security_info)>;

struct AuditRecord {
  std::int64_t at_epoch_seconds = 0;
  std::string subject;   // DN string
  std::string action;    // "authenticate", "consign", "server-auth"
  bool accepted = false;
  std::string detail;
};

class Gateway {
 public:
  /// Sole owner of its security state (the single-gateway Usite).
  Gateway(std::string usite, crypto::TrustStore trust, UserDatabase uudb)
      : Gateway(std::move(usite),
                std::make_shared<crypto::TrustStore>(std::move(trust)),
                std::make_shared<UserDatabase>(std::move(uudb)),
                std::make_shared<ShardedAuthCache>()) {}

  /// A replica sharing the Usite's trust store, UUDB, and auth cache.
  Gateway(std::string usite, std::shared_ptr<crypto::TrustStore> trust,
          std::shared_ptr<UserDatabase> uudb,
          std::shared_ptr<ShardedAuthCache> auth_cache)
      : usite_(std::move(usite)),
        trust_(std::move(trust)),
        uudb_(std::move(uudb)),
        auth_cache_(std::move(auth_cache)) {}

  const std::string& usite() const { return usite_; }
  crypto::TrustStore& trust_store() { return *trust_; }
  const crypto::TrustStore& trust_store() const { return *trust_; }
  UserDatabase& uudb() { return *uudb_; }

  // Shared handles, for wiring additional replicas.
  const std::shared_ptr<crypto::TrustStore>& shared_trust_store() const {
    return trust_;
  }
  const std::shared_ptr<UserDatabase>& shared_uudb() const { return uudb_; }
  const std::shared_ptr<ShardedAuthCache>& shared_auth_cache() const {
    return auth_cache_;
  }

  void set_site_auth_hook(SiteAuthHook hook) { site_hook_ = std::move(hook); }

  /// Validates a *user* certificate (client-auth usage, chain, CRL) and
  /// maps it to the local identity.
  util::Result<AuthenticatedUser> authenticate_user(
      const crypto::Certificate& cert, std::int64_t now_epoch_seconds);

  /// Validates a *server* certificate presented by a peer NJS/gateway in
  /// NJS–NJS communication.
  util::Status authenticate_server(const crypto::Certificate& cert,
                                   std::int64_t now_epoch_seconds);

  /// Full consignment check for a signed AJO: user authentication, AJO
  /// signature over the canonical encoding, account-group authorisation,
  /// structural validation of the job, and the site hook.
  util::Result<AuthenticatedUser> check_consignment(
      const ajo::SignedAjo& signed_ajo, std::int64_t now_epoch_seconds);

  /// Authorisation half of a consignment check for an identity that is
  /// already authenticated (token consigns, docs/PORTAL.md): the job
  /// must name the authenticated subject, its account group must be one
  /// of the user's, it must validate structurally, and the site hook
  /// must pass. No AJO signature is verified — the session token (or
  /// whatever produced `user`) already proves the submitting identity.
  util::Status authorize_job(const ajo::AbstractJobObject& job,
                             const AuthenticatedUser& user,
                             const crypto::Certificate& cert,
                             std::int64_t now_epoch_seconds);

  /// Consignment check for a job group forwarded NJS-to-NJS (§4.3): the
  /// consigning *server* endorses the job with its own signature over
  /// `signing_input`; the original user's certificate is still mapped
  /// through the UUDB so the job runs under the local login.
  util::Result<AuthenticatedUser> check_forwarded_consignment(
      const ajo::AbstractJobObject& job,
      const crypto::Certificate& user_certificate,
      const crypto::Certificate& consignor_certificate,
      const crypto::Signature& signature, util::ByteView signing_input,
      std::int64_t now_epoch_seconds);

  const std::vector<AuditRecord>& audit_log() const { return audit_; }

  /// Counts every audited decision into `registry` as
  /// unicore_gateway_auth_total{usite, action, result}, and attaches the
  /// shared auth cache's counters/gauges. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  // --- authentication fast path ---------------------------------------
  // Delegates to the shared ShardedAuthCache (gateway/auth_cache.h):
  // positives memoized per subject DN, sharded by DN hash, stamped with
  // the trust generation and the generation of the subject's UUDB
  // shard. A CRL change flushes everything; a UUDB edit only
  // invalidates the shard it touched.

  /// Seconds a cached decision stays valid; 0 disables the cache.
  void set_auth_cache_ttl(std::int64_t seconds) {
    auth_cache_->set_ttl(seconds);
  }
  std::int64_t auth_cache_ttl() const { return auth_cache_->ttl(); }
  /// Drops every cached decision (e.g. after an out-of-band revocation).
  void invalidate_auth_cache() { auth_cache_->invalidate_all(); }
  std::uint64_t auth_cache_hits() const { return auth_cache_->hits(); }
  std::uint64_t auth_cache_misses() const { return auth_cache_->misses(); }

 private:
  /// Key of a memoized endorsement-signature verification: digest of
  /// the signing input, the signature, and the verifying key.
  using VerifyKey =
      std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>;

  enum class AuditAction : std::uint8_t {
    kAuthenticate,
    kServerAuth,
    kConsign,
    kConsignForwarded,
  };
  static constexpr std::size_t kAuditActionCount = 4;

  void audit(std::int64_t now, const std::string& subject, AuditAction action,
             bool accepted, std::string detail);
  bool verify_endorsement(const crypto::PublicKey& key,
                          util::ByteView signing_input,
                          const crypto::Signature& signature);

  std::string usite_;
  std::shared_ptr<crypto::TrustStore> trust_;
  std::shared_ptr<UserDatabase> uudb_;
  std::shared_ptr<ShardedAuthCache> auth_cache_;
  SiteAuthHook site_hook_;
  std::vector<AuditRecord> audit_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// unicore_gateway_auth_total per [action][accepted], resolved on first
  /// use and dropped by set_metrics.
  std::array<std::array<obs::Counter*, 2>, kAuditActionCount>
      audit_counters_{};
  std::map<VerifyKey, bool> verify_memo_;
};

}  // namespace unicore::gateway
