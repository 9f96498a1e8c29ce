// Gateway-issued portal sessions (docs/PORTAL.md).
//
// The paper's client story is certificate-per-request: every JPA/JMC
// interaction authenticates the channel's peer certificate. Production
// portals ("The Anatomy of a Grid portal") instead hand the user an
// opaque bearer token after one authenticated contact and multiplex all
// further traffic — possibly over pooled channels whose own peer
// certificate belongs to the portal, not the user.
//
// A token session maps onto an existing certificate identity and is
// never weaker than the certificate it wraps:
//   - it carries its own TTL (refresh extends, close revokes),
//   - it is stamped with the trust-store generation and the generation
//     of the *subject's UUDB shard* it was validated under; any CRL or
//     root change, or a UUDB edit touching that shard, forces the next
//     authentication through the gateway's full path again (which the
//     PR-4 auth cache keeps cheap), so a revoked or suspended user's
//     token fails exactly like their certificate — while edits to other
//     shards leave the fast path intact,
//   - the mapped login/groups refresh automatically on UUDB edits.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gateway/gateway.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace unicore::gateway {

/// What kSessionOpen / kSessionRefresh return to the client.
struct SessionGrant {
  util::Bytes token;             // opaque bearer capsule
  std::int64_t expires_at = 0;   // epoch seconds; refresh extends it
  std::string login;             // the mapped local identity

  void encode(util::ByteWriter& w) const;
  static SessionGrant decode(util::ByteReader& r);
};

/// The identity a validated token resolves to.
struct SessionIdentity {
  AuthenticatedUser user;
  crypto::Certificate certificate;  // the certificate the session wraps
};

class SessionBroker {
 public:
  SessionBroker(Gateway& gateway, util::Rng& rng);

  /// Seconds a session lives without a refresh (default 1800; opens may
  /// request less, never more).
  void set_ttl(std::int64_t seconds) { ttl_seconds_ = seconds; }
  std::int64_t ttl() const { return ttl_seconds_; }
  /// Upper bound on concurrently open sessions: outside callers grow
  /// the table, so further opens are refused kResourceExhausted.
  static constexpr std::size_t kMaxSessions = 1 << 20;

  /// Authenticates `cert` through the gateway (full path or auth-cache
  /// hit) and mints a new session.
  util::Result<SessionGrant> open(const crypto::Certificate& cert,
                                  std::int64_t now,
                                  std::int64_t requested_ttl = 0);
  /// Re-validates the session and extends its expiry by the TTL.
  util::Result<SessionGrant> refresh(util::ByteView token, std::int64_t now);
  /// Explicit logout; unknown tokens are kNotFound.
  util::Status close(util::ByteView token);

  /// Resolves a token to its identity — the per-request fast path. An
  /// unexpired token whose trust/UUDB generations are still current
  /// costs one map lookup; a stale one re-runs the gateway's
  /// certificate authentication and is dropped if that fails.
  util::Result<SessionIdentity> authenticate(util::ByteView token,
                                             std::int64_t now);

  std::size_t active() const { return sessions_.size(); }
  std::uint64_t opened() const { return opened_; }
  std::uint64_t refreshed() const { return refreshed_; }
  std::uint64_t closed() const { return closed_; }
  std::uint64_t expired() const { return expired_; }
  std::uint64_t rejected() const { return rejected_; }
  /// Token validations answered from the generation-stamped session
  /// record alone (no certificate re-validation).
  std::uint64_t fast_validations() const { return fast_validations_; }

  /// Counts session lifecycle events into `registry` as
  /// unicore_gateway_sessions_total{usite, action, result} and keeps the
  /// unicore_gateway_active_sessions{usite} gauge current.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct Session {
    crypto::Certificate certificate;
    AuthenticatedUser user;
    std::int64_t issued_at = 0;
    std::int64_t expires_at = 0;
    std::uint64_t trust_generation = 0;
    std::size_t uudb_shard = 0;  // the subject's UUDB shard
    std::uint64_t uudb_generation = 0;
    std::uint64_t refreshes = 0;
  };
  enum class Action : std::uint8_t {
    kOpen,
    kRefresh,
    kClose,
    kAuthenticate,
    kExpire,
  };
  static constexpr std::size_t kActionCount = 5;

  util::Bytes mint_token();
  /// Drops sessions past their expiry (called on open so the table
  /// cannot grow without bound under abandoned sessions). Amortized:
  /// a min-heap of (expires_at, token) deadlines is popped only down
  /// to `now`, so an open among 10⁵ live sessions does O(expired ·
  /// log n) work instead of scanning the whole table. Refreshing a
  /// session pushes a later deadline; the superseded heap entry is
  /// recognised (the session's actual expiry is re-checked at pop
  /// time) and skipped.
  void sweep(std::int64_t now);
  void count(Action action, bool accepted);
  void update_gauge();
  /// Shared validation core of refresh/authenticate: TTL, generation
  /// stamps, and the certificate re-validation fallback.
  util::Result<Session*> validate(util::ByteView token, std::int64_t now);

  using ExpiryEntry = std::pair<std::int64_t, util::Bytes>;

  Gateway& gateway_;
  util::Rng rng_;
  std::map<util::Bytes, Session> sessions_;
  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                      std::greater<ExpiryEntry>>
      expiry_heap_;
  std::int64_t ttl_seconds_ = 1800;
  std::uint64_t opened_ = 0;
  std::uint64_t refreshed_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t fast_validations_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Series handles, resolved on first use and dropped by set_metrics:
  /// unicore_gateway_sessions_total per [action][accepted] and the
  /// active-sessions gauge.
  std::array<std::array<obs::Counter*, 2>, kActionCount> counters_{};
  obs::Gauge* active_gauge_ = nullptr;
};

}  // namespace unicore::gateway
