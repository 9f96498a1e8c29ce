#include "server/usite_server.h"

#include <limits>

#include "ajo/codec.h"
#include "server/reply_table.h"
#include "util/log.h"

namespace unicore::server {

using ajo::JobToken;
using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

enum PipeMessage : std::uint8_t {
  kPipeRequest = 1,
  kPipeReply = 2,
  kPipeNotify = 3,
};

}  // namespace

// ---- internal structures ---------------------------------------------------

struct UsiteServer::ClientSession {
  std::uint64_t id = 0;
  /// Which gateway replica's listener accepted this session.
  std::size_t gateway_index = 0;
  std::shared_ptr<net::SecureChannel> channel;
};

struct UsiteServer::PeerConnection {
  struct FinalHandler {
    std::function<void(ajo::Outcome)> handler;
    /// The peer's NJS notifies through the session that carried the
    /// consignment — i.e. this slot's channel. If it dies, the
    /// notification path is gone and the outcome must be failed.
    std::size_t slot = 0;
  };

  PeerConnection(sim::Engine& engine, ReplyTable::TimeoutText timeout_text)
      : replies(engine, std::move(timeout_text)) {}

  std::shared_ptr<net::ChannelPool> pool;
  /// Requests in flight on any of the pool's slots.
  ReplyTable replies;
  std::map<std::uint64_t, FinalHandler> finals;
  /// Slot of the most recently dispatched reply; valid only during the
  /// synchronous extent of that reply's handler.
  std::size_t last_reply_slot = 0;
};

// ---- construction ----------------------------------------------------------

UsiteServer::UsiteServer(sim::Engine& engine, net::Network& network,
                         util::Rng& rng, UsiteConfig config,
                         crypto::Credential server_credential,
                         crypto::TrustStore trust,
                         gateway::UserDatabase uudb)
    : engine_(engine),
      network_(network),
      rng_(rng.fork()),
      config_(std::move(config)),
      credential_(server_credential),
      gateway_(config_.name, std::move(trust), std::move(uudb)),
      njs_cluster_(engine, rng_, config_.name, std::move(server_credential),
                   config_.njs_replicas == 0 ? 1 : config_.njs_replicas),
      session_broker_(gateway_, rng_),
      metrics_(njs_cluster_.primary().metrics()),
      xfer_manager_(engine, rng_),
      ticket_manager_(rng_) {
  // One content-addressed chunk store per Usite (it models the site's
  // disk array, shared by every Uspace): the NJS interns delivered
  // files into it and the transfer receiver dedups inbound chunks
  // against it.
  chunk_store_ = std::make_shared<store::ChunkStore>();
  chunk_store_->set_metrics(metrics_, config_.name);
  // Every NJS replica gets the site-wide wiring plus its own transfer
  // receiver, ids strided to the replica's token partition.
  for (std::size_t i = 0; i < njs_cluster_.replica_count(); ++i) {
    njs::Njs& replica = njs_cluster_.replica(i);
    replica.set_peer_link(this);
    replica.set_chunk_store(chunk_store_);
    auto service = std::make_unique<xfer::Service>(engine, replica);
    service->set_id_partition(i);
    service->set_chunk_store(chunk_store_);
    replica.add_crash_participant(service.get());
    xfer_services_.push_back(std::move(service));
  }
  njs_cluster_.set_metrics(metrics_);
  // Gateway replicas 1..G-1 share replica 0's trust store, UUDB, and
  // auth cache: one CRL push or UUDB edit is visible on every listener,
  // and an identity cached by one replica is warm on all of them.
  for (std::size_t g = 1; g < config_.gateway_replicas; ++g)
    gateway_replicas_.push_back(std::make_unique<gateway::Gateway>(
        config_.name, gateway_.shared_trust_store(), gateway_.shared_uudb(),
        gateway_.shared_auth_cache()));
  gateway_.set_metrics(metrics_.get());
  for (auto& replica : gateway_replicas_) replica->set_metrics(metrics_.get());
  for (std::size_t g = 0; g < gateway_replica_count(); ++g)
    gateway_ring_.add(std::to_string(g));
  gateway_busy_until_.assign(gateway_replica_count(), 0);
  njs_busy_until_.assign(njs_cluster_.replica_count(), 0);
  session_broker_.set_metrics(metrics_.get());
  xfer_manager_.set_metrics(metrics_.get(), config_.name);
  // Any trust change (new root, new CRL) instantly kills every session
  // ticket this server has handed out.
  ticket_manager_.attach_trust(&gateway_.trust_store());
}

void UsiteServer::set_metrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  if (registry == nullptr || registry == metrics_) return;
  metrics_ = std::move(registry);
  request_series_ = {};
  njs_cluster_.set_metrics(metrics_);
  chunk_store_->set_metrics(metrics_, config_.name);
  gateway_.set_metrics(metrics_.get());
  for (auto& replica : gateway_replicas_) replica->set_metrics(metrics_.get());
  session_broker_.set_metrics(metrics_.get());
  xfer_manager_.set_metrics(metrics_.get(), config_.name);
}

UsiteServer::~UsiteServer() = default;

Status UsiteServer::start() {
  if (started_)
    return util::make_error(ErrorCode::kFailedPrecondition,
                            "server already started");
  // Gateway replica g listens on port+g; every listener feeds the same
  // session table, broker, and ticket mint, so a client may contact any
  // of them (and resume tickets minted through any other).
  for (std::size_t g = 0; g < gateway_replica_count(); ++g) {
    net::Address listen_address{config_.gateway_host,
                                static_cast<std::uint16_t>(config_.port + g)};
    auto status = network_.listen(
        listen_address, [this, g](std::shared_ptr<net::Endpoint> endpoint) {
          accept_session(std::move(endpoint), g);
        });
    if (!status.ok()) return status;
  }
  Status status = Status::ok_status();

  if (config_.split()) {
    // The "IP socket connection to a site selectable port" between the
    // Web-server/gateway half (on the firewall) and the NJS inside.
    status = network_.listen(
        {config_.njs_host, config_.njs_port},
        [this](std::shared_ptr<net::Endpoint> endpoint) {
          // The pipe is a single long-lived connection from the gateway;
          // anything after it (port probes from the gateway host) is
          // refused so the pipe cannot be hijacked.
          if (pipe_server_ != nullptr && pipe_server_->is_open()) {
            endpoint->close();
            return;
          }
          pipe_server_ = std::move(endpoint);
          pipe_server_->set_receiver([this](Bytes&& wire) {
            handle_pipe_server_message(std::move(wire));
          });
        });
    if (!status.ok()) return status;
    auto pipe = network_.connect(config_.gateway_host,
                                 {config_.njs_host, config_.njs_port});
    if (!pipe) return pipe.error();
    pipe_client_ = std::move(pipe.value());
    pipe_client_->set_receiver([this](Bytes&& wire) {
      handle_pipe_client_message(std::move(wire));
    });
  }
  started_ = true;
  return Status::ok_status();
}

void UsiteServer::apply_firewall_rules() {
  if (!config_.split()) return;
  net::Firewall& inner = network_.firewall(config_.njs_host);
  inner.deny_all();
  inner.allow(config_.gateway_host, config_.njs_port);
}

void UsiteServer::add_peer(const std::string& usite,
                           net::Address gateway_address) {
  peers_[usite] = std::move(gateway_address);
}

std::vector<net::Address> UsiteServer::gateway_addresses() const {
  std::vector<net::Address> addresses;
  for (std::size_t g = 0; g < 1 + gateway_replicas_.size(); ++g)
    addresses.push_back({config_.gateway_host,
                         static_cast<std::uint16_t>(config_.port + g)});
  return addresses;
}

net::Address UsiteServer::route_address(
    const crypto::DistinguishedName& dn) const {
  const std::string* node = gateway_ring_.node_for(dn.to_string());
  std::size_t index = node == nullptr ? 0 : std::stoul(*node);
  return {config_.gateway_host,
          static_cast<std::uint16_t>(config_.port + index)};
}

std::vector<net::Address> UsiteServer::route_addresses(
    const crypto::DistinguishedName& dn) const {
  std::vector<net::Address> addresses;
  for (const std::string& node : gateway_ring_.walk(dn.to_string()))
    addresses.push_back(
        {config_.gateway_host,
         static_cast<std::uint16_t>(config_.port + std::stoul(node))});
  if (addresses.empty()) addresses.push_back(address());  // every replica dead
  return addresses;
}

void UsiteServer::stop_gateway_replica(std::size_t index) {
  if (index >= gateway_replica_count()) return;
  network_.close_listener(
      {config_.gateway_host,
       static_cast<std::uint16_t>(config_.port + index)});
  // Off the ring: route_address now hands out the next clockwise node,
  // and route_addresses stops listing this replica entirely.
  gateway_ring_.remove(std::to_string(index));
  // Sessions the dead replica accepted die with it (their channels
  // close mid-request from the client's point of view).
  std::vector<std::shared_ptr<ClientSession>> doomed;
  for (auto& [id, session] : sessions_)
    if (session->gateway_index == index) doomed.push_back(session);
  for (auto& session : doomed) {
    session->channel->close();
    sessions_.erase(session->id);
  }
}

void UsiteServer::publish_bundle(crypto::SoftwareBundle bundle) {
  bundles_[bundle.name] = std::move(bundle);
}

// ---- inbound sessions -------------------------------------------------------

void UsiteServer::accept_session(std::shared_ptr<net::Endpoint> endpoint,
                                 std::size_t gateway_index) {
  auto session = std::make_shared<ClientSession>();
  session->id = next_session_id_++;
  session->gateway_index = gateway_index;

  net::SecureChannel::Config channel_config;
  channel_config.credential = credential_;
  channel_config.trust = &gateway_.trust_store();
  channel_config.required_peer_usage = 0;  // user or server; checked per-op
  channel_config.ticket_manager = &ticket_manager_;

  std::uint64_t id = session->id;
  session->channel = net::SecureChannel::as_server(
      engine_, rng_, std::move(endpoint), channel_config,
      [this, id](Status status) {
        auto it = sessions_.find(id);
        if (it == sessions_.end()) return;
        std::shared_ptr<ClientSession> session = it->second;
        if (!status.ok()) {
          sessions_.erase(it);
          return;
        }
        session->channel->set_receiver([this, id](Bytes&& wire) {
          auto it = sessions_.find(id);
          if (it == sessions_.end()) return;
          handle_session_message(it->second, std::move(wire));
        });
        session->channel->set_close_handler([this, id] {
          sessions_.erase(id);
        });
      });
  // The map entry keeps the session alive; the channel callbacks only
  // capture the id, so erasing the entry tears everything down.
  sessions_[id] = std::move(session);
}

void UsiteServer::handle_session_message(
    const std::shared_ptr<ClientSession>& session, Bytes&& wire) {
  if (gateway_service_time_ > 0) {
    // The replica is a serial server: this request waits for everything
    // already queued on it, then occupies it for the service time.
    std::size_t g = session->gateway_index;
    sim::Time start = std::max(engine_.now(), gateway_busy_until_[g]);
    gateway_busy_until_[g] = start + gateway_service_time_;
    engine_.at(gateway_busy_until_[g],
               [this, session, wire = std::move(wire)]() mutable {
                 process_session_message(session, std::move(wire));
               });
    return;
  }
  process_session_message(session, std::move(wire));
}

void UsiteServer::process_session_message(
    const std::shared_ptr<ClientSession>& session, Bytes&& wire) {
  ByteReader reader{wire};
  auto type = static_cast<MessageType>(reader.u8());
  // Clients only send requests: plain, or the portal's token envelope.
  if (type != MessageType::kRequest && type != MessageType::kTokenRequest)
    return;
  auto kind = static_cast<RequestKind>(reader.u8());
  std::uint64_t request_id = reader.u64();
  if (!reader.ok()) {
    // Without its id a request cannot be answered.
    UNICORE_WARN("server/" + config_.name) << "malformed request dropped";
    return;
  }
  std::optional<Bytes> token;
  if (type == MessageType::kTokenRequest) token = reader.blob();
  if (!reader.ok())  // a token cut short
    return session->channel->send(
        make_error_reply(request_id, reader.finish().error()));
  ++requests_served_;
  handle_request(session, kind, request_id, reader, token);
}

namespace {

/// Packs the NJS half of a request for the (possibly remote) executor.
Bytes pack_njs_request(RequestKind kind, std::uint64_t request_id,
                       const gateway::AuthenticatedUser& user,
                       util::ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(request_id);
  user.encode(w);
  w.raw(payload);
  return w.take();
}

}  // namespace

void UsiteServer::handle_request(const std::shared_ptr<ClientSession>& session,
                                 RequestKind kind, std::uint64_t request_id,
                                 ByteReader& payload,
                                 const std::optional<Bytes>& token) {
  std::int64_t now_epoch = net::epoch_seconds(engine_.now());
  std::uint64_t session_id = session->id;
  // The replica whose listener carries this session authenticates it;
  // all replicas share trust/UUDB/auth-cache state, so the answer is
  // identical on any of them (and cache fills warm every listener).
  gateway::Gateway& gw = gateway_replica(session->gateway_index);

  auto reply_error = [session](std::uint64_t request_id,
                               const util::Error& error) {
    session->channel->send(make_error_reply(request_id, error));
  };
  // Each case below reads its whole payload, then checks it here before
  // acting on anything it read.
  auto malformed = [&] {
    reply_error(request_id, payload.finish().error());
  };
  // The reply callback runs on the gateway side in both deployments
  // (directly when combined; in handle_pipe_client_message when split),
  // so it hands the reply straight to the session.
  sim::Time received_at = engine_.now();
  RequestSeries& series = request_series_[static_cast<std::uint8_t>(kind)];
  if (series.requests == nullptr)
    series.requests = &metrics_->counter(
        "unicore_server_requests_total",
        {{"kind", request_kind_name(kind)}, {"usite", config_.name}});
  series.requests->increment();
  auto forward = [this, session, session_id, kind, received_at](Bytes packed) {
    execute_at_njs(
        session_id, std::move(packed),
        [this, session_id, kind, received_at](Bytes reply) {
          RequestSeries& series =
              request_series_[static_cast<std::uint8_t>(kind)];
          if (series.latency == nullptr)
            series.latency = &metrics_->histogram(
                "unicore_gateway_request_latency_seconds",
                {{"kind", request_kind_name(kind)}, {"usite", config_.name}},
                obs::latency_buckets());
          series.latency->observe(sim::to_seconds(engine_.now() - received_at));
          deliver_to_session(session_id, std::move(reply));
        });
  };

  // Resolves the caller: the envelope's bearer token when present (the
  // channel may then belong to a portal pooling many users), otherwise
  // the channel's peer certificate.
  auto client_identity =
      [&]() -> Result<gateway::SessionIdentity> {
    if (token) return session_broker_.authenticate(*token, now_epoch);
    auto user = gw.authenticate_user(
        session->channel->peer_certificate(), now_epoch);
    if (!user) return user.error();
    return gateway::SessionIdentity{user.value(),
                                    session->channel->peer_certificate()};
  };

  switch (kind) {
    case RequestKind::kSessionOpen: {
      // The one certificate-authenticated contact: the channel's peer
      // (full or resumed handshake) is who the session is minted for.
      std::int64_t requested_ttl = payload.i64();
      if (!payload.ok()) return malformed();
      auto grant = session_broker_.open(session->channel->peer_certificate(),
                                       now_epoch, requested_ttl);
      if (!grant) return reply_error(request_id, grant.error());
      ByteWriter out;
      grant.value().encode(out);
      return session->channel->send(make_ok_reply(request_id, out.bytes()));
    }
    case RequestKind::kSessionRefresh: {
      if (!token)
        return reply_error(
            request_id,
            util::make_error(ErrorCode::kInvalidArgument,
                             "session refresh must ride the token envelope"));
      auto grant = session_broker_.refresh(*token, now_epoch);
      if (!grant) return reply_error(request_id, grant.error());
      ByteWriter out;
      grant.value().encode(out);
      return session->channel->send(make_ok_reply(request_id, out.bytes()));
    }
    case RequestKind::kSessionClose: {
      if (!token)
        return reply_error(
            request_id,
            util::make_error(ErrorCode::kInvalidArgument,
                             "session close must ride the token envelope"));
      if (auto status = session_broker_.close(*token); !status.ok())
        return reply_error(request_id, status.error());
      return session->channel->send(make_ok_reply(request_id, {}));
    }
    case RequestKind::kGetBundle: {
      // Served by the Web-server half directly: the signed applet.
      std::string name = payload.str();
      if (!payload.ok()) return malformed();
      auto it = bundles_.find(name);
      if (it == bundles_.end())
        return reply_error(request_id,
                           util::make_error(ErrorCode::kNotFound,
                                            "no such bundle: " + name));
      return session->channel->send(
          make_ok_reply(request_id, it->second.encode()));
    }
    case RequestKind::kConsign: {
      if (token) {
        // Portal consign: the bearer token proves the submitting
        // identity, so the AJO travels unsigned — no signature powmods
        // on this path, only the authorisation half of the check.
        auto identity = client_identity();
        if (!identity) return reply_error(request_id, identity.error());
        Bytes job_wire = payload.raw(payload.remaining());
        auto action = ajo::decode_action(job_wire);
        if (!action) return reply_error(request_id, action.error());
        if (!action.value()->is_job())
          return reply_error(
              request_id,
              util::make_error(ErrorCode::kInvalidArgument,
                               "consigned action is not a job"));
        auto& job = static_cast<ajo::AbstractJobObject&>(*action.value());
        if (auto status =
                gw.authorize_job(job, identity.value().user,
                                       identity.value().certificate,
                                       now_epoch);
            !status.ok())
          return reply_error(request_id, status.error());
        ByteWriter inner;
        inner.blob(job_wire);
        inner.blob(identity.value().certificate.der());
        return forward(pack_njs_request(kind, request_id,
                                        identity.value().user,
                                        inner.bytes()));
      }
      Bytes signed_wire = payload.raw(payload.remaining());
      auto signed_ajo = ajo::SignedAjo::decode(signed_wire);
      if (!signed_ajo) return reply_error(request_id, signed_ajo.error());
      auto user = gw.check_consignment(signed_ajo.value(), now_epoch);
      if (!user) return reply_error(request_id, user.error());
      ByteWriter inner;
      inner.blob(ajo::encode_action(signed_ajo.value().job));
      inner.blob(signed_ajo.value().user_certificate.der());
      return forward(
          pack_njs_request(kind, request_id, user.value(), inner.bytes()));
    }
    case RequestKind::kForwardConsign: {
      const njs::ForwardedConsignment c = decode_forwarded(payload);
      if (!payload.ok()) return malformed();
      auto user = gw.check_forwarded_consignment(
          c.job, c.user_certificate, c.consignor_certificate, c.signature,
          njs::ForwardedConsignment::signing_input(c.job, c.user_certificate),
          now_epoch);
      if (!user) return reply_error(request_id, user.error());
      return forward(pack_njs_request(kind, request_id, user.value(),
                                      encode_forwarded(c)));
    }
    case RequestKind::kJournalInspect:
    case RequestKind::kQuery:
    case RequestKind::kList:
    case RequestKind::kControl:
    case RequestKind::kFetchOutput:
    case RequestKind::kMonitorMetrics:
    case RequestKind::kMonitorTrace:
    case RequestKind::kStorageList:
    case RequestKind::kStorageFiles:
    case RequestKind::kStorageReap: {
      // JMC operations: the session token or the channel's peer
      // certificate is the user.
      auto identity = client_identity();
      if (!identity) return reply_error(request_id, identity.error());
      Bytes rest = payload.raw(payload.remaining());
      return forward(pack_njs_request(kind, request_id,
                                      identity.value().user, rest));
    }
    case RequestKind::kDeliverFile:
    case RequestKind::kFetchFile:
    case RequestKind::kPeerControl: {
      // Peer-NJS operations: the channel peer must be a UNICORE server.
      auto status = gw.authenticate_server(
          session->channel->peer_certificate(), now_epoch);
      if (!status.ok()) return reply_error(request_id, status.error());
      gateway::AuthenticatedUser server_identity;
      server_identity.dn = session->channel->peer_certificate().subject;
      Bytes rest = payload.raw(payload.remaining());
      return forward(
          pack_njs_request(kind, request_id, server_identity, rest));
    }
    case RequestKind::kResourcePages: {
      gateway::AuthenticatedUser anonymous;
      return forward(pack_njs_request(kind, request_id, anonymous, {}));
    }
    case RequestKind::kXferBundleOpen:
    case RequestKind::kXferChunk:
    case RequestKind::kXferBundleClose: {
      // The leading Role byte picks the authentication path: pushes and
      // peer pulls are NJS–NJS (server certificate), client pulls and
      // client pushes are JMC traffic (user certificate + ownership
      // check in the NJS).
      auto role = static_cast<xfer::Role>(payload.u8());
      if (!payload.ok()) return malformed();
      bool server_peer = xfer::role_is_server_peer(role);
      gateway::AuthenticatedUser principal;
      if (server_peer) {
        auto status = gw.authenticate_server(
            session->channel->peer_certificate(), now_epoch);
        if (!status.ok()) return reply_error(request_id, status.error());
        principal.dn = session->channel->peer_certificate().subject;
      } else {
        auto user = gw.authenticate_user(
            session->channel->peer_certificate(), now_epoch);
        if (!user) return reply_error(request_id, user.error());
        principal = user.value();
      }
      ByteWriter body;
      body.u8(server_peer ? 1 : 0);
      body.u8(static_cast<std::uint8_t>(role));
      body.raw(payload.raw(payload.remaining()));
      return forward(
          pack_njs_request(kind, request_id, principal, body.bytes()));
    }
  }
  reply_error(request_id, util::make_error(ErrorCode::kInvalidArgument,
                                           "unknown request kind"));
}

// ---- the NJS-side executor --------------------------------------------------

Bytes UsiteServer::njs_execute(std::uint64_t session_id, ByteReader& packed,
                               sim::Time* ready_at) {
  auto kind = static_cast<RequestKind>(packed.u8());
  std::uint64_t request_id = packed.u64();
  auto user = gateway::AuthenticatedUser::decode(packed);
  // The header is checked here; each case below reads the rest of its
  // request, then checks it before acting on anything it read.
  auto malformed = [request_id](const ByteReader& reader) {
    return make_error_reply(request_id, reader.finish().error());
  };
  if (!packed.ok()) return malformed(packed);

  // Charges one admission to the token's owning replica (a serial
  // server, like the gateway's service queue) and reports when that
  // queue drains.
  auto charge_admission = [this, ready_at](JobToken token) {
    if (njs_admission_cost_ <= 0) return;
    auto owner = njs_cluster_.owner_of(token);
    if (!owner) return;
    sim::Time start = std::max(engine_.now(), njs_busy_until_[*owner]);
    njs_busy_until_[*owner] = start + njs_admission_cost_;
    if (ready_at != nullptr) *ready_at = njs_busy_until_[*owner];
  };

  // Token-addressed requests go to the partition's current owner: the
  // minting replica, or its adopter after a journal handoff. A dead,
  // unadopted partition answers kUnavailable (clients retry; the peer
  // link's idempotency keys make that safe).
  auto njs_for = [this](JobToken token) -> njs::Njs* {
    return njs_cluster_.replica_for_token(token);
  };
  auto replica_down = [request_id](JobToken token) {
    return make_error_reply(
        request_id,
        util::make_error(ErrorCode::kUnavailable,
                         "NJS replica owning job " + std::to_string(token) +
                             " is down"));
  };

  auto check_owner = [&user, &njs_for](JobToken token) -> Status {
    njs::Njs* replica = njs_for(token);
    if (replica == nullptr)
      return util::make_error(ErrorCode::kUnavailable,
                              "NJS replica owning job " +
                                  std::to_string(token) + " is down");
    auto owner = replica->owner(token);
    if (!owner) return owner.error();
    if (owner.value() != user.dn)
      return util::make_error(ErrorCode::kPermissionDenied,
                              "job belongs to a different user");
    return Status::ok_status();
  };

  switch (kind) {
    case RequestKind::kConsign: {
      Bytes job_wire = packed.blob();
      Bytes cert_der = packed.blob();
      if (!packed.ok()) return malformed(packed);
      auto action = ajo::decode_action(job_wire);
      if (!action) return make_error_reply(request_id, action.error());
      auto cert = crypto::Certificate::from_der(cert_der);
      if (!cert) return make_error_reply(request_id, cert.error());
      auto token = njs_cluster_.consign(
          static_cast<ajo::AbstractJobObject&>(*action.value()), user,
          cert.value());
      if (!token) return make_error_reply(request_id, token.error());
      charge_admission(token.value());
      ByteWriter out;
      out.u64(token.value());
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kForwardConsign: {
      njs::ForwardedConsignment c = decode_forwarded(packed);
      if (!packed.ok()) return malformed(packed);
      // The digest of the signed consignment keys deduplication: a
      // retried kForwardConsign (sender timed out, we had accepted)
      // maps onto the existing job and returns its original token.
      Bytes key = c.idempotency_key();
      auto token = njs_cluster_.consign(
          c.job, user, c.user_certificate,
          [this, session_id](JobToken token, const ajo::Outcome& outcome) {
            notify_session_raw(session_id,
                               make_notification(token, outcome));
          },
          std::move(c.staged_files), std::move(key));
      if (!token) return make_error_reply(request_id, token.error());
      charge_admission(token.value());
      ByteWriter out;
      out.u64(token.value());
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kQuery: {
      JobToken token = packed.u64();
      auto detail = static_cast<ajo::QueryService::Detail>(packed.u8());
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      auto outcome = njs_for(token)->query(token, detail);
      if (!outcome) return make_error_reply(request_id, outcome.error());
      ByteWriter out;
      outcome.value().encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kList: {
      ByteWriter out;
      out.list(njs_cluster_.list(user.dn));
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kControl: {
      JobToken token = packed.u64();
      auto command = static_cast<ajo::ControlService::Command>(packed.u8());
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      if (auto status = njs_for(token)->control(token, command);
          !status.ok())
        return make_error_reply(request_id, status.error());
      return make_ok_reply(request_id, {});
    }
    case RequestKind::kFetchOutput: {
      JobToken token = packed.u64();
      std::string name = packed.str();
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      auto blob = njs_for(token)->read_output(token, name);
      if (!blob) return make_error_reply(request_id, blob.error());
      ByteWriter out;
      blob.value().encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kResourcePages: {
      auto pages = njs_cluster_.primary().resource_pages();
      ByteWriter out;
      out.varint(pages.size());
      for (const auto& page : pages) out.blob(page.encode());
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kDeliverFile: {
      JobToken token = packed.u64();
      std::string name = packed.str();
      uspace::FileBlob blob = uspace::FileBlob::decode(packed);
      if (!packed.ok()) return malformed(packed);
      njs::Njs* replica = njs_for(token);
      if (replica == nullptr) return replica_down(token);
      if (auto status = replica->deliver_file(token, name, std::move(blob));
          !status.ok())
        return make_error_reply(request_id, status.error());
      return make_ok_reply(request_id, {});
    }
    case RequestKind::kFetchFile: {
      JobToken token = packed.u64();
      std::string name = packed.str();
      if (!packed.ok()) return malformed(packed);
      njs::Njs* replica = njs_for(token);
      if (replica == nullptr) return replica_down(token);
      auto blob = replica->fetch_file(token, name);
      if (!blob) return make_error_reply(request_id, blob.error());
      ByteWriter out;
      blob.value().encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kPeerControl: {
      JobToken token = packed.u64();
      auto command = static_cast<ajo::ControlService::Command>(packed.u8());
      if (!packed.ok()) return malformed(packed);
      // Authorised by the gateway's server authentication; the job was
      // consigned here by the requesting NJS in the first place.
      njs::Njs* replica = njs_for(token);
      if (replica == nullptr) return replica_down(token);
      if (auto status = replica->control(token, command); !status.ok())
        return make_error_reply(request_id, status.error());
      return make_ok_reply(request_id, {});
    }
    case RequestKind::kMonitorMetrics: {
      // MonitorService: a point-in-time snapshot of every metric the
      // Usite (and, with a shared registry, the whole grid) recorded.
      for (std::size_t i = 0; i < njs_cluster_.replica_count(); ++i)
        njs_cluster_.replica(i).refresh_gauges();
      njs_cluster_.refresh_gauges();
      obs::MetricsSnapshot snapshot = metrics_->snapshot();
      ByteWriter out;
      snapshot.encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kMonitorTrace: {
      JobToken token = packed.u64();
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      auto timeline = njs_for(token)->trace(token);
      if (!timeline) return make_error_reply(request_id, timeline.error());
      ByteWriter out;
      timeline.value()->encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kJournalInspect: {
      ByteWriter out;
      njs_cluster_.journal_info().encode(out);
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kXferBundleOpen:
    case RequestKind::kXferChunk:
    case RequestKind::kXferBundleClose: {
      bool server_peer = packed.u8() != 0;
      auto role = static_cast<xfer::Role>(packed.u8());
      // Route to the partition owner's transfer receiver. Opens carry
      // the job token, so they follow the job — after a handoff that
      // is the adopter. Chunks and closes carry the transfer id,
      // which is strided by the service that minted it; an id from a
      // crashed replica's table answers kNotFound and the sender
      // re-opens by durable key (landing on the adopter). The service
      // reads and checks the body itself.
      ByteReader peek = packed;  // routing must not consume the body
      const bool open = kind == RequestKind::kXferBundleOpen;
      if (open && xfer::role_is_push(role)) peek.blob();  // bundle key
      std::uint64_t route = peek.u64();  // job token or transfer id
      if (!peek.ok()) return malformed(peek);
      std::size_t target = 0;
      if (open) {
        auto owner = njs_cluster_.owner_of(route);
        if (!owner) return replica_down(route);
        target = *owner;
      } else {
        std::uint64_t partition = route >> njs::kTokenPartitionShift;
        if (partition >= xfer_services_.size())
          return make_error_reply(
              request_id, util::make_error(ErrorCode::kNotFound,
                                           "no such transfer id"));
        target = partition;
      }
      xfer::Service& service = *xfer_services_[target];
      Result<Bytes> reply = util::make_error(ErrorCode::kInternal, "");
      switch (kind) {
        case RequestKind::kXferBundleOpen:
          reply = service.open(user.dn, server_peer, role, packed);
          break;
        case RequestKind::kXferChunk:
          reply = service.chunk(user.dn, server_peer, role, packed);
          break;
        default:
          reply = service.close(user.dn, server_peer, role, packed);
          break;
      }
      if (!reply) return make_error_reply(request_id, reply.error());
      return make_ok_reply(request_id, reply.value());
    }
    case RequestKind::kStorageList: {
      ByteWriter out;
      out.list(njs_cluster_.storages(user.dn));
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kStorageFiles: {
      JobToken token = packed.u64();
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      auto files = njs_for(token)->storage_files(token);
      if (!files) return make_error_reply(request_id, files.error());
      ByteWriter out;
      out.strings(files.value());
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kStorageReap: {
      JobToken token = packed.u64();
      if (!packed.ok()) return malformed(packed);
      if (auto status = check_owner(token); !status.ok())
        return make_error_reply(request_id, status.error());
      auto freed = njs_for(token)->reap_storage(token);
      if (!freed) return make_error_reply(request_id, freed.error());
      ByteWriter out;
      out.u64(freed.value());
      return make_ok_reply(request_id, out.bytes());
    }
    case RequestKind::kSessionOpen:
    case RequestKind::kSessionRefresh:
    case RequestKind::kSessionClose:
    case RequestKind::kGetBundle:
      break;  // handled at the gateway; never reaches the NJS
  }
  return make_error_reply(request_id,
                          util::make_error(ErrorCode::kInvalidArgument,
                                           "unhandled request kind"));
}

void UsiteServer::execute_at_njs(std::uint64_t session_id, Bytes packed,
                                 std::function<void(Bytes)> reply) {
  if (!config_.split() || pipe_client_ == nullptr) {
    ByteReader reader{packed};
    sim::Time ready_at = 0;
    Bytes out = njs_execute(session_id, reader, &ready_at);
    // An admission-cost model holds the consign ack until the owning
    // replica's queue drains — that back-pressure is what the closed-
    // loop generators measure.
    if (ready_at > engine_.now()) {
      engine_.at(ready_at, [reply = std::move(reply),
                            out = std::move(out)]() mutable {
        reply(std::move(out));
      });
      return;
    }
    reply(std::move(out));
    return;
  }
  std::uint64_t pipe_id = next_pipe_id_++;
  pipe_pending_[pipe_id] = std::move(reply);
  ByteWriter w;
  w.u8(kPipeRequest);
  w.u64(pipe_id);
  w.u64(session_id);
  w.raw(packed);
  pipe_client_->send(w.take());
}

void UsiteServer::handle_pipe_server_message(Bytes&& wire) {
  // Runs on the NJS host: execute and send the reply back across.
  ByteReader reader{wire};
  auto type = static_cast<PipeMessage>(reader.u8());
  if (type != kPipeRequest) return;
  std::uint64_t pipe_id = reader.u64();
  std::uint64_t session_id = reader.u64();
  if (!reader.ok()) {
    UNICORE_WARN("server/" + config_.name) << "malformed pipe request";
    return;
  }
  sim::Time ready_at = 0;
  Bytes reply = njs_execute(session_id, reader, &ready_at);
  ByteWriter w;
  w.u8(kPipeReply);
  w.u64(pipe_id);
  w.raw(reply);
  Bytes framed = w.take();
  if (ready_at > engine_.now()) {
    engine_.at(ready_at, [this, framed = std::move(framed)]() mutable {
      if (pipe_server_) pipe_server_->send(std::move(framed));
    });
    return;
  }
  if (pipe_server_) pipe_server_->send(std::move(framed));
}

void UsiteServer::handle_pipe_client_message(Bytes&& wire) {
  // Runs on the gateway host: route replies and notifications out.
  ByteReader reader{wire};
  auto type = static_cast<PipeMessage>(reader.u8());
  std::uint64_t id = reader.u64();  // pipe id of a reply, session of a note
  Bytes body = reader.raw(reader.remaining());
  if (!reader.ok()) {
    UNICORE_WARN("server/" + config_.name) << "malformed pipe reply";
    return;
  }
  if (type == kPipeReply) {
    auto it = pipe_pending_.find(id);
    if (it == pipe_pending_.end()) return;
    auto handler = std::move(it->second);
    pipe_pending_.erase(it);
    handler(std::move(body));
  } else if (type == kPipeNotify) {
    deliver_to_session(id, std::move(body));
  }
}

void UsiteServer::notify_session_raw(std::uint64_t session_id, Bytes wire) {
  // On the NJS host of a split deployment, traffic to clients goes back
  // through the gateway across the pipe.
  if (config_.split() && pipe_server_ != nullptr) {
    ByteWriter w;
    w.u8(kPipeNotify);
    w.u64(session_id);
    w.raw(wire);
    pipe_server_->send(w.take());
    return;
  }
  deliver_to_session(session_id, std::move(wire));
}

void UsiteServer::deliver_to_session(std::uint64_t session_id, Bytes wire) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  if (!it->second->channel->established()) return;
  it->second->channel->send(std::move(wire));
}

// ---- PeerLink ----------------------------------------------------------------

UsiteServer::PeerConnection& UsiteServer::peer_connection(
    const std::string& usite) {
  auto it = peer_connections_.find(usite);
  if (it != peer_connections_.end()) return *it->second;

  // A lost request or reply must not hang the caller forever: after its
  // deadline a request fails kTimeout — retryable, and the peer may have
  // acted, which is why consignments carry idempotency keys.
  auto connection = std::make_unique<PeerConnection>(engine_, [this, usite] {
    metrics_
        ->counter("unicore_peer_request_timeouts_total",
                  {{"usite", config_.name}})
        .increment();
    return "peer request to " + usite + " timed out";
  });

  net::ChannelPool::Config pool_config;
  pool_config.local_host = config_.njs_side_host();
  pool_config.remote = peers_.at(usite);
  pool_config.size = kPeerPoolSize;
  pool_config.channel.credential = credential_;
  pool_config.channel.trust = &gateway_.trust_store();
  pool_config.channel.required_peer_usage = crypto::kUsageServerAuth;
  pool_config.channel.session_cache = &peer_sessions_;
  connection->pool =
      net::ChannelPool::create(engine_, network_, rng_,
                               std::move(pool_config));

  std::string peer_name = usite;
  connection->pool->set_receiver(
      [this, peer_name](std::size_t slot, Bytes&& wire) {
        handle_peer_message(peer_name, slot, std::move(wire));
      });
  connection->pool->set_slot_failure(
      [this, peer_name](std::size_t slot, const util::Error& error) {
        fail_peer_slot(peer_name, slot, error);
      });

  PeerConnection& ref = *connection;
  peer_connections_[usite] = std::move(connection);
  return ref;
}

void UsiteServer::fail_peer_slot(const std::string& usite, std::size_t slot,
                                 const util::Error& error) {
  auto it = peer_connections_.find(usite);
  if (it == peer_connections_.end()) return;
  PeerConnection& connection = *it->second;
  // Only the failed slot's work dies — requests and outcome watchers on
  // the pool's other slots are untouched. Collect the watchers before
  // failing the requests: handlers may re-enter and register new work.
  std::vector<std::function<void(ajo::Outcome)>> lost_finals;
  for (auto fit = connection.finals.begin();
       fit != connection.finals.end();) {
    if (fit->second.slot == slot) {
      lost_finals.push_back(std::move(fit->second.handler));
      fit = connection.finals.erase(fit);
    } else {
      ++fit;
    }
  }
  connection.replies.fail(slot, error);
  // Jobs already consigned remotely are reported unsuccessful: the
  // session that would have carried their outcome is gone.
  for (auto& handler : lost_finals) {
    ajo::Outcome outcome;
    outcome.status = ajo::ActionStatus::kNotSuccessful;
    outcome.message = "peer link to " + usite + " lost: " + error.message;
    handler(std::move(outcome));
  }
}

void UsiteServer::handle_peer_message(const std::string& usite,
                                      std::size_t slot, Bytes&& wire) {
  auto it = peer_connections_.find(usite);
  if (it == peer_connections_.end()) return;
  PeerConnection& connection = *it->second;
  connection.last_reply_slot = slot;
  if (connection.replies.resolve(wire)) return;
  ByteReader reader{wire};
  auto type = static_cast<MessageType>(reader.u8());
  if (type != MessageType::kNotification) return;
  std::uint64_t token = reader.u64();
  ajo::Outcome outcome = ajo::Outcome::decode(reader);
  if (!reader.ok()) {
    UNICORE_WARN("server/" + config_.name)
        << "malformed peer message from " << usite;
    return;
  }
  auto final_it = connection.finals.find(token);
  if (final_it == connection.finals.end()) return;
  auto handler = std::move(final_it->second.handler);
  connection.finals.erase(final_it);
  handler(std::move(outcome));
}

void UsiteServer::send_peer_request(
    const std::string& usite, RequestKind kind, Bytes payload,
    std::function<void(Result<Bytes>)> on_reply) {
  if (!peers_.count(usite)) {
    on_reply(util::make_error(ErrorCode::kNotFound,
                              "unknown peer usite: " + usite));
    return;
  }
  PeerConnection& connection = peer_connection(usite);
  std::size_t slot = connection.pool->next_slot();
  std::uint64_t request_id = connection.replies.add(
      peer_request_timeout_, slot, std::move(on_reply));
  // A synchronous connect failure fails the request we just registered
  // through the pool's slot-failure callback.
  connection.pool->send_on(slot, make_request(kind, request_id, payload));
}

void UsiteServer::peer_call(const std::string& usite, RequestKind kind,
                            Bytes payload, int attempt,
                            std::function<void(Result<Bytes>)> on_reply) {
  util::CircuitBreaker& breaker = peer_breakers_[usite];
  if (!breaker.allow(engine_.now())) {
    metrics_
        ->counter("unicore_peer_circuit_rejections_total",
                  {{"usite", config_.name}, {"peer", usite}})
        .increment();
    on_reply(util::make_error(
        ErrorCode::kUnavailable,
        "peer circuit open: " + usite + " (" +
            util::circuit_state_name(breaker.state()) + ")"));
    return;
  }
  Bytes wire_payload = payload;  // the original is retained for retries
  auto handler = [this, usite, kind, payload = std::move(payload), attempt,
                  on_reply = std::move(on_reply)](Result<Bytes> reply) mutable {
    util::CircuitBreaker& breaker = peer_breakers_[usite];
    if (reply) {
      breaker.record_success();
      on_reply(std::move(reply));
      return;
    }
    if (!util::is_retryable(reply.error().code)) {
      // A real rejection; the breaker only counts transport-level
      // failures, and retrying would repeat the same answer.
      on_reply(std::move(reply));
      return;
    }
    breaker.record_failure(engine_.now());
    if (attempt >= peer_backoff_.max_attempts) {
      on_reply(std::move(reply));
      return;
    }
    ++peer_retries_;
    metrics_
        ->counter("unicore_peer_retries_total",
                  {{"usite", config_.name}, {"peer", usite}})
        .increment();
    sim::Time delay = util::backoff_delay_us(peer_backoff_, attempt, rng_);
    UNICORE_DEBUG("server/" + config_.name)
        << "peer request to " << usite << " failed ("
        << reply.error().to_string() << "); retry " << attempt + 1 << " in "
        << delay << "us";
    engine_.after(delay, [this, usite, kind, payload = std::move(payload),
                          attempt, on_reply = std::move(on_reply)]() mutable {
      peer_call(usite, kind, std::move(payload), attempt + 1,
                std::move(on_reply));
    });
  };
  send_peer_request(usite, kind, std::move(wire_payload), std::move(handler));
}

void UsiteServer::consign(
    const std::string& usite, const njs::ForwardedConsignment& consignment,
    std::function<void(Result<njs::RemoteJobHandle>)> on_accepted,
    std::function<void(ajo::Outcome)> on_final) {
  peer_call(
      usite, RequestKind::kForwardConsign, encode_forwarded(consignment), 1,
      [this, usite, on_accepted = std::move(on_accepted),
       on_final = std::move(on_final)](Result<Bytes> reply) {
        if (!reply) {
          on_accepted(reply.error());
          return;
        }
        ByteReader reader{reply.value()};
        njs::RemoteJobHandle handle;
        handle.usite = usite;
        handle.token = reader.u64();
        if (!reader.ok()) {
          on_accepted(util::make_error(ErrorCode::kInvalidArgument,
                                       "malformed consign reply from " +
                                           usite));
          return;
        }
        // Bind the outcome watcher to the slot whose session carried
        // the consignment — the peer notifies through that session.
        if (auto it = peer_connections_.find(usite);
            it != peer_connections_.end() && on_final)
          it->second->finals[handle.token] = {std::move(on_final),
                                              it->second->last_reply_slot};
        on_accepted(handle);
      });
}

// ---- file movement: the transfer engine and whole blobs --------------------

std::shared_ptr<XferRails> UsiteServer::peer_rails(const std::string& usite) {
  auto it = peer_rails_.find(usite);
  if (it != peer_rails_.end() && it->second->streams() == transfer_streams_)
    return it->second;

  XferRails::Config config;
  config.local_host = config_.njs_side_host();
  config.remote = peers_.at(usite);
  config.streams = transfer_streams_;
  config.credential = credential_;
  config.trust = &gateway_.trust_store();
  config.required_peer_usage = crypto::kUsageServerAuth;
  config.request_timeout = peer_request_timeout_;
  config.session_cache = &peer_sessions_;
  auto rails = XferRails::create(engine_, network_, rng_, std::move(config));
  peer_rails_[usite] = rails;
  return rails;
}

void UsiteServer::push_files(const njs::RemoteJobHandle& target, Files files,
                             std::function<void(Status)> done) {
  if (!peers_.count(target.usite)) {
    done(util::make_error(ErrorCode::kNotFound,
                          "unknown peer usite: " + target.usite));
    return;
  }
  ++transfer_stats_.chunked;
  xfer::PushSpec spec;
  spec.source = config_.name;
  spec.token = target.token;
  std::vector<xfer::BundleFile> bundle;
  bundle.reserve(files.size());
  for (const auto& [name, blob] : files) bundle.push_back({name, blob});
  xfer_manager_.push(peer_rails(target.usite), spec, std::move(bundle),
                     transfer_options_,
                     [done = std::move(done)](Result<xfer::TransferStats> r) {
                       if (!r)
                         done(r.error());
                       else
                         done(Status::ok_status());
                     });
}

void UsiteServer::deliver_whole_blobs(const njs::RemoteJobHandle& target,
                                      Files files, std::size_t next,
                                      std::function<void(Status)> done) {
  if (next == files.size()) {
    done(Status::ok_status());
    return;
  }
  ++transfer_stats_.legacy;
  ByteWriter payload;
  payload.u64(target.token);
  payload.str(files[next].first);
  files[next].second->encode(payload);
  peer_call(target.usite, RequestKind::kDeliverFile, payload.take(), 1,
            [this, target, files = std::move(files), next,
             done = std::move(done)](Result<Bytes> reply) mutable {
              if (!reply) {
                done(reply.error());
                return;
              }
              deliver_whole_blobs(target, std::move(files), next + 1,
                                  std::move(done));
            });
}

void UsiteServer::fetch_whole_blobs(
    const njs::RemoteJobHandle& source, std::vector<std::string> names,
    std::vector<uspace::FileBlob> blobs,
    std::function<void(Result<std::vector<uspace::FileBlob>>)> done) {
  if (blobs.size() == names.size()) {
    done(std::move(blobs));
    return;
  }
  ++transfer_stats_.legacy;
  ByteWriter payload;
  payload.u64(source.token);
  payload.str(names[blobs.size()]);
  peer_call(source.usite, RequestKind::kFetchFile, payload.take(), 1,
            [this, source, names = std::move(names), blobs = std::move(blobs),
             done = std::move(done)](Result<Bytes> reply) mutable {
              if (!reply) {
                done(reply.error());
                return;
              }
              ByteReader reader{reply.value()};
              uspace::FileBlob blob = uspace::FileBlob::decode(reader);
              if (!reader.ok()) {
                done(util::make_error(ErrorCode::kInvalidArgument,
                                      "malformed file reply"));
                return;
              }
              blobs.push_back(std::move(blob));
              fetch_whole_blobs(source, std::move(names), std::move(blobs),
                                std::move(done));
            });
}

void UsiteServer::deliver_file(const njs::RemoteJobHandle& target,
                               const std::string& uspace_name,
                               std::shared_ptr<const uspace::FileBlob> blob,
                               std::function<void(Status)> done) {
  if (blob == nullptr) {
    done(util::make_error(ErrorCode::kInvalidArgument,
                          "deliver_file: null blob"));
    return;
  }
  bool small = blob->size() < transfer_threshold_;
  Files files{{uspace_name, std::move(blob)}};
  if (small)
    deliver_whole_blobs(target, std::move(files), 0, std::move(done));
  else
    push_files(target, std::move(files), std::move(done));
}

void UsiteServer::deliver_files(const njs::RemoteJobHandle& target,
                                Files files, std::function<void(Status)> done) {
  for (const auto& [name, blob] : files) {
    if (blob == nullptr) {
      done(util::make_error(ErrorCode::kInvalidArgument,
                            "deliver_files: null blob for " + name));
      return;
    }
  }
  if (files.empty()) {
    done(Status::ok_status());
    return;
  }
  // The batch rides the engine regardless of file size: one bundle
  // open covers it, so small files pay no per-file round trips.
  push_files(target, std::move(files), std::move(done));
}

void UsiteServer::fetch_files(
    const njs::RemoteJobHandle& source, std::vector<std::string> names,
    std::function<void(Result<std::vector<uspace::FileBlob>>)> done) {
  if (names.empty()) {
    done(std::vector<uspace::FileBlob>{});
    return;
  }
  if (transfer_threshold_ == std::numeric_limits<std::uint64_t>::max()) {
    // The engine is disabled outright.
    fetch_whole_blobs(source, std::move(names), {}, std::move(done));
    return;
  }
  if (!peers_.count(source.usite)) {
    done(util::make_error(ErrorCode::kNotFound,
                          "unknown peer usite: " + source.usite));
    return;
  }
  // Pull sizes are unknown up front, so every fetch goes through the
  // engine; its inline open keeps a lone small file at one round trip.
  ++transfer_stats_.chunked;
  xfer::PullSpec spec;
  spec.role = xfer::Role::kPeerPull;
  spec.token = source.token;
  spec.names = std::move(names);
  spec.store = chunk_store_;  // open-reply manifest dedup
  xfer_manager_.pull(peer_rails(source.usite), spec, transfer_options_,
                     [done = std::move(done)](Result<xfer::PullResult> r) {
                       if (!r)
                         done(r.error());
                       else
                         done(std::move(r.value().blobs));
                     });
}

void UsiteServer::control(const njs::RemoteJobHandle& target,
                          ajo::ControlService::Command command,
                          std::function<void(Status)> done) {
  ByteWriter payload;
  payload.u64(target.token);
  payload.u8(static_cast<std::uint8_t>(command));
  peer_call(target.usite, RequestKind::kPeerControl, payload.take(), 1,
            [done = std::move(done)](Result<Bytes> reply) {
                      if (!reply)
                        done(reply.error());
                      else
                        done(Status::ok_status());
                    });
}

}  // namespace unicore::server
