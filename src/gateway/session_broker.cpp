#include "gateway/session_broker.h"

#include <utility>

namespace unicore::gateway {

using util::Bytes;
using util::ByteView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
/// 128-bit bearer tokens: unguessable, and small enough that the
/// kTokenRequest envelope stays cheaper than a certificate blob.
constexpr std::size_t kTokenBytes = 16;
}  // namespace

void SessionGrant::encode(util::ByteWriter& w) const {
  w.blob(token);
  w.i64(expires_at);
  w.str(login);
}

SessionGrant SessionGrant::decode(util::ByteReader& r) {
  SessionGrant grant;
  grant.token = r.blob();
  grant.expires_at = r.i64();
  grant.login = r.str();
  return grant;
}

SessionBroker::SessionBroker(Gateway& gateway, util::Rng& rng)
    : gateway_(gateway), rng_(rng.fork()) {}

Bytes SessionBroker::mint_token() {
  Bytes token = rng_.bytes(kTokenBytes);
  // Astronomically unlikely, but a collision must never splice two
  // users' sessions together.
  while (sessions_.count(token) != 0) token = rng_.bytes(kTokenBytes);
  return token;
}

void SessionBroker::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  counters_ = {};
  active_gauge_ = nullptr;
}

void SessionBroker::count(Action action, bool accepted) {
  if (!metrics_) return;
  static constexpr const char* kActionNames[kActionCount] = {
      "open", "refresh", "close", "authenticate", "expire"};
  auto index = static_cast<std::size_t>(action);
  obs::Counter*& counter = counters_[index][accepted];
  if (counter == nullptr)
    counter = &metrics_->counter("unicore_gateway_sessions_total",
                                 {{"usite", gateway_.usite()},
                                  {"action", kActionNames[index]},
                                  {"result", accepted ? "accept" : "reject"}});
  counter->increment();
}

void SessionBroker::update_gauge() {
  if (!metrics_) return;
  if (active_gauge_ == nullptr)
    active_gauge_ = &metrics_->gauge("unicore_gateway_active_sessions",
                                     {{"usite", gateway_.usite()}});
  active_gauge_->set(static_cast<double>(sessions_.size()));
}

void SessionBroker::sweep(std::int64_t now) {
  bool erased = false;
  while (!expiry_heap_.empty() && expiry_heap_.top().first <= now) {
    ExpiryEntry due = expiry_heap_.top();
    expiry_heap_.pop();
    auto it = sessions_.find(due.second);
    // Gone already (closed, or expired through validate), or refreshed
    // to a later deadline — the heap entry is stale; skip it.
    if (it == sessions_.end() || now < it->second.expires_at) continue;
    ++expired_;
    count(Action::kExpire, true);
    sessions_.erase(it);
    erased = true;
  }
  if (erased) update_gauge();
}

Result<SessionGrant> SessionBroker::open(const crypto::Certificate& cert,
                                         std::int64_t now,
                                         std::int64_t requested_ttl) {
  sweep(now);
  if (sessions_.size() >= kMaxSessions) {
    ++rejected_;
    count(Action::kOpen, false);
    return util::make_error(ErrorCode::kResourceExhausted,
                            "session table full at " + gateway_.usite());
  }

  auto user = gateway_.authenticate_user(cert, now);
  if (!user) {
    ++rejected_;
    count(Action::kOpen, false);
    return user.error();
  }

  std::int64_t ttl = ttl_seconds_;
  if (requested_ttl > 0 && requested_ttl < ttl) ttl = requested_ttl;

  Session session;
  session.certificate = cert;
  session.user = user.value();
  session.issued_at = now;
  session.expires_at = now + ttl;
  session.trust_generation = gateway_.trust_store().generation();
  // Per-shard stamp: a UUDB edit elsewhere leaves this session's
  // generation fast path intact. The shard is found once, here; every
  // later validation reads its generation by index.
  session.uudb_shard = gateway_.uudb().shard_of(cert.subject);
  session.uudb_generation =
      gateway_.uudb().shard_generation(session.uudb_shard);

  Bytes token = mint_token();
  SessionGrant grant{token, session.expires_at, session.user.login};
  expiry_heap_.emplace(session.expires_at, token);
  sessions_.emplace(std::move(token), std::move(session));
  ++opened_;
  count(Action::kOpen, true);
  update_gauge();
  return grant;
}

Result<SessionBroker::Session*> SessionBroker::validate(ByteView token,
                                                        std::int64_t now) {
  auto it = sessions_.find(Bytes(token.begin(), token.end()));
  if (it == sessions_.end()) {
    ++rejected_;
    return util::make_error(ErrorCode::kAuthenticationFailed,
                            "unknown or closed session token");
  }
  Session& session = it->second;
  if (now >= session.expires_at) {
    ++expired_;
    count(Action::kExpire, true);
    sessions_.erase(it);
    update_gauge();
    ++rejected_;
    return util::make_error(ErrorCode::kAuthenticationFailed,
                            "session token expired");
  }
  if (session.trust_generation == gateway_.trust_store().generation() &&
      session.uudb_generation ==
          gateway_.uudb().shard_generation(session.uudb_shard)) {
    ++fast_validations_;
    return &session;
  }
  // The world changed underneath the session (CRL/root update or UUDB
  // edit). Re-run the gateway's certificate authentication — the same
  // decision a fresh certificate presentation would get — and either
  // re-stamp the session with the current generations or drop it, so a
  // revoked or suspended user's token dies exactly like their cert.
  auto user = gateway_.authenticate_user(session.certificate, now);
  if (!user) {
    sessions_.erase(it);
    update_gauge();
    ++rejected_;
    return user.error();
  }
  session.user = user.value();  // pick up login/group edits
  session.trust_generation = gateway_.trust_store().generation();
  session.uudb_generation =
      gateway_.uudb().shard_generation(session.uudb_shard);
  return &session;
}

Result<SessionGrant> SessionBroker::refresh(ByteView token, std::int64_t now) {
  auto session = validate(token, now);
  if (!session) {
    count(Action::kRefresh, false);
    return session.error();
  }
  session.value()->expires_at = now + ttl_seconds_;
  ++session.value()->refreshes;
  expiry_heap_.emplace(session.value()->expires_at,
                       Bytes(token.begin(), token.end()));
  ++refreshed_;
  count(Action::kRefresh, true);
  return SessionGrant{Bytes(token.begin(), token.end()),
                      session.value()->expires_at,
                      session.value()->user.login};
}

Status SessionBroker::close(ByteView token) {
  auto it = sessions_.find(Bytes(token.begin(), token.end()));
  if (it == sessions_.end()) {
    count(Action::kClose, false);
    return util::make_error(ErrorCode::kNotFound, "unknown session token");
  }
  sessions_.erase(it);
  ++closed_;
  count(Action::kClose, true);
  update_gauge();
  return util::Status();
}

Result<SessionIdentity> SessionBroker::authenticate(ByteView token,
                                                    std::int64_t now) {
  auto session = validate(token, now);
  if (!session) {
    count(Action::kAuthenticate, false);
    return session.error();
  }
  count(Action::kAuthenticate, true);
  return SessionIdentity{session.value()->user,
                         session.value()->certificate};
}

}  // namespace unicore::gateway
