#include "client/client.h"

#include "ajo/codec.h"

namespace unicore::client {

using server::RequestKind;
using util::Bytes;
using util::ByteWriter;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// The client's hybrid ChunkTransport: stream 0 is the established JMC
/// channel (so the inline-open fast path costs no extra handshake);
/// streams 1..n ride a bundle of extra rails authenticated with the
/// same user credential.
class ClientTransport : public xfer::ChunkTransport {
 public:
  ClientTransport(UnicoreClient& client, std::shared_ptr<bool> alive,
                  std::shared_ptr<server::XferRails> rails)
      : client_(client), alive_(std::move(alive)), rails_(std::move(rails)) {}

  std::size_t streams() const override {
    return 1 + (rails_ ? rails_->streams() : 0);
  }

  void call(std::size_t stream, xfer::Op op, Bytes body,
            std::function<void(Result<Bytes>)> done) override {
    if (stream == 0 || rails_ == nullptr) {
      if (!*alive_) {
        done(util::make_error(ErrorCode::kUnavailable, "client destroyed"));
        return;
      }
      client_.xfer_call(op, std::move(body), std::move(done));
      return;
    }
    rails_->call(stream - 1, op, std::move(body), std::move(done));
  }

 private:
  UnicoreClient& client_;
  std::shared_ptr<bool> alive_;
  std::shared_ptr<server::XferRails> rails_;
};

/// Request kinds that may ride the kTokenRequest envelope once a
/// session is adopted. kSessionOpen always authenticates the channel's
/// peer certificate; bundle / resource-page downloads and the chunked
/// transfer envelopes keep their certificate-bound plain form.
bool token_eligible(RequestKind kind) {
  switch (kind) {
    case RequestKind::kConsign:
    case RequestKind::kQuery:
    case RequestKind::kList:
    case RequestKind::kControl:
    case RequestKind::kFetchOutput:
    case RequestKind::kMonitorMetrics:
    case RequestKind::kMonitorTrace:
    case RequestKind::kJournalInspect:
    case RequestKind::kSessionRefresh:
    case RequestKind::kSessionClose:
    case RequestKind::kStorageList:
    case RequestKind::kStorageFiles:
    case RequestKind::kStorageReap:
      return true;
    default:
      return false;
  }
}

}  // namespace

UnicoreClient::UnicoreClient(sim::Engine& engine, net::Network& network,
                             util::Rng& rng, Config config)
    : engine_(engine),
      network_(network),
      rng_(rng.fork()),
      config_(std::move(config)),
      replies_(engine,
               [] { return std::string("request timed out (message lost?)"); }),
      xfer_manager_(engine, rng_) {}

UnicoreClient::~UnicoreClient() {
  *alive_ = false;
  disconnect();
}

void UnicoreClient::connect(net::Address usite,
                            std::function<void(Status)> done) {
  disconnect();
  usite_address_ = usite;
  auto endpoint = network_.connect(config_.host, usite);
  if (!endpoint) {
    done(endpoint.error());
    return;
  }

  net::SecureChannel::Config channel_config;
  channel_config.credential = config_.user;
  channel_config.trust = config_.trust;
  channel_config.required_peer_usage = crypto::kUsageServerAuth;
  // Reconnects resume from the cached session ticket — one round trip,
  // no public-key operations — until the ticket expires or the server
  // invalidates it.
  channel_config.session_cache = &sessions_;
  channel_config.session_key =
      net::SessionCache::key_for(usite.host, usite.port);

  channel_ = net::SecureChannel::as_client(
      engine_, rng_, std::move(endpoint.value()), channel_config,
      [this, done = std::move(done)](Status status) {
        if (!status.ok()) {
          established_ = false;
          channel_.reset();
          done(status);
          return;
        }
        established_ = true;
        // JPA/JMC only poll: a message that is not a reply is ignored.
        channel_->set_receiver(
            [this](Bytes&& wire) { replies_.resolve(wire); });
        channel_->set_close_handler([this] {
          established_ = false;
          replies_.fail(0, util::make_error(ErrorCode::kUnavailable,
                                            "connection to Usite lost"));
        });
        done(Status::ok_status());
      });
}

void UnicoreClient::connect_any(std::vector<net::Address> addresses,
                                std::function<void(Status)> done) {
  if (addresses.empty()) {
    done(util::make_error(ErrorCode::kUnavailable,
                          "no gateway replica addresses to try"));
    return;
  }
  net::Address first = addresses.front();
  addresses.erase(addresses.begin());
  connect(first, [this, addresses = std::move(addresses),
                  done = std::move(done)](Status status) mutable {
    if (status.ok() || addresses.empty()) {
      done(std::move(status));
      return;
    }
    // Dead listener or failed handshake: walk the ring to the next
    // replica (the re-routing half of consistent-hash addressing).
    connect_any(std::move(addresses), std::move(done));
  });
}

bool UnicoreClient::connected() const {
  return established_ && channel_ && channel_->established();
}

void UnicoreClient::disconnect() {
  if (channel_) channel_->close();
  channel_.reset();
  established_ = false;
  transport_.reset();  // drops the rails toward the old Usite
  replies_.fail(
      0, util::make_error(ErrorCode::kUnavailable, "client disconnected"));
}

void UnicoreClient::send_request(
    RequestKind kind, Bytes payload,
    std::function<void(Result<Bytes>)> on_reply) {
  if (!connected()) {
    on_reply(util::make_error(ErrorCode::kUnavailable, "not connected"));
    return;
  }
  ++requests_sent_;
  std::uint64_t request_id =
      replies_.add(config_.request_timeout, 0, std::move(on_reply));
  if (!session_token_.empty() && token_eligible(kind))
    channel_->send(
        server::make_token_request(kind, request_id, session_token_, payload));
  else
    channel_->send(server::make_request(kind, request_id, payload));
}

// ---- operations ------------------------------------------------------------
// Each operation is its codec plus a payload writer; the call<> template
// owns the request/reply/timeout plumbing.

void UnicoreClient::fetch_bundle(
    const std::string& name,
    std::function<void(Result<crypto::SoftwareBundle>)> done) {
  ByteWriter payload;
  payload.str(name);
  const crypto::TrustStore* trust = config_.trust;
  sim::Time now = engine_.now();
  call<wire::BundleCodec>(
      payload.take(),
      [done = std::move(done), trust, now](Result<crypto::SoftwareBundle>
                                               bundle) {
        if (!bundle) {
          done(bundle.error());
          return;
        }
        // "The applet certificate is checked to assure the user that the
        //  software has not been tampered with." (§4.1)
        if (trust != nullptr) {
          auto status = crypto::verify_bundle(bundle.value(), *trust,
                                              net::epoch_seconds(now));
          if (!status.ok()) {
            done(status.error());
            return;
          }
        }
        done(std::move(bundle.value()));
      });
}

void UnicoreClient::fetch_resource_pages(
    std::function<void(Result<std::vector<resources::ResourcePage>>)> done) {
  call<wire::ResourcePagesCodec>({}, std::move(done));
}

void UnicoreClient::submit(const ajo::AbstractJobObject& job,
                           std::function<void(Result<ajo::JobToken>)> done) {
  if (has_session()) {
    // Token consign: the bearer token already proves the identity, so
    // the AJO travels unsigned — no signature powmods on this path.
    call<wire::ConsignCodec>(ajo::encode_action(job), std::move(done));
    return;
  }
  ajo::SignedAjo signed_ajo = ajo::sign_ajo(job, config_.user);
  call<wire::ConsignCodec>(signed_ajo.encode(), std::move(done));
}

void UnicoreClient::submit_with_retry(
    const ajo::AbstractJobObject& job, int attempts,
    std::function<void(Result<ajo::JobToken>)> done) {
  if (attempts < 1) {
    done(util::make_error(ErrorCode::kUnavailable, "no attempts left"));
    return;
  }
  auto attempt = std::make_shared<std::function<void(int)>>();
  auto job_copy = std::make_shared<ajo::AbstractJobObject>(job);
  int total = attempts;
  // The loop function holds itself only weakly; the strong reference
  // that keeps the retry chain alive rides in the scheduled callbacks
  // below (self-capture here would be a permanent shared_ptr cycle).
  *attempt = [this, job_copy, done, total,
              weak_attempt = std::weak_ptr<std::function<void(int)>>(
                  attempt)](int remaining) {
    auto attempt = weak_attempt.lock();
    auto retry = [this, attempt, remaining, total,
                  done](const util::Error& error) {
      if (remaining <= 1) {
        done(error);
        return;
      }
      // Back off, reconnect, then try again — each interaction is short,
      // so a lossy link only costs a retry (the §5.3 robustness
      // argument); the growing delay keeps a down Usite from being
      // hammered.
      sim::Time delay = util::backoff_delay_us(
          util::BackoffPolicy{}, total - remaining + 1, rng_);
      engine_.after(delay, [this, attempt, remaining, done] {
        connect(usite_address_, [attempt, remaining, done](Status) {
          (*attempt)(remaining - 1);
        });
      });
    };
    if (!connected()) {
      retry(util::make_error(ErrorCode::kUnavailable, "not connected"));
      return;
    }
    submit(*job_copy, [done, retry](Result<ajo::JobToken> token) {
      if (token) {
        done(std::move(token));
        return;
      }
      if (util::is_retryable(token.error().code)) {
        retry(token.error());
        return;
      }
      done(token.error());  // a real rejection; retrying will not help
    });
  };
  (*attempt)(attempts);
}

void UnicoreClient::query(ajo::JobToken token,
                          ajo::QueryService::Detail detail,
                          std::function<void(Result<ajo::Outcome>)> done) {
  ByteWriter payload;
  payload.u64(token);
  payload.u8(static_cast<std::uint8_t>(detail));
  call<wire::QueryCodec>(payload.take(), std::move(done));
}

void UnicoreClient::list(
    std::function<void(Result<std::vector<njs::JobSummary>>)> done) {
  call<wire::ListCodec>({}, std::move(done));
}

void UnicoreClient::control(ajo::JobToken token,
                            ajo::ControlService::Command command,
                            std::function<void(Status)> done) {
  ByteWriter payload;
  payload.u64(token);
  payload.u8(static_cast<std::uint8_t>(command));
  call<wire::ControlCodec>(payload.take(),
                           [done = std::move(done)](Result<Ack> reply) {
                             if (!reply)
                               done(reply.error());
                             else
                               done(Status::ok_status());
                           });
}

void UnicoreClient::xfer_call(
    xfer::Op op, Bytes body,
    std::function<void(Result<Bytes>)> done) {
  send_request(server::xfer_request_kind(op), std::move(body),
               std::move(done));
}

std::shared_ptr<xfer::ChunkTransport> UnicoreClient::transfer_transport() {
  if (transport_) return transport_;
  std::shared_ptr<server::XferRails> rails;
  if (config_.transfer_streams > 1) {
    server::XferRails::Config rails_config;
    rails_config.local_host = config_.host;
    rails_config.remote = usite_address_;
    rails_config.streams = config_.transfer_streams - 1;
    rails_config.credential = config_.user;
    rails_config.trust = config_.trust;
    rails_config.required_peer_usage = crypto::kUsageServerAuth;
    rails_config.request_timeout = config_.request_timeout;
    rails_config.session_cache = &sessions_;
    rails = server::XferRails::create(engine_, network_, rng_,
                                      std::move(rails_config));
  }
  transport_ =
      std::make_shared<ClientTransport>(*this, alive_, std::move(rails));
  return transport_;
}

void UnicoreClient::fetch_output(
    ajo::JobToken token, const std::string& name,
    std::function<void(Result<uspace::FileBlob>)> done) {
  fetch_tree(token, {name},
             [done = std::move(done)](Result<std::vector<uspace::FileBlob>> r) {
               if (!r)
                 done(r.error());
               else
                 done(std::move(r.value().front()));
             });
}

void UnicoreClient::push_tree(
    ajo::JobToken token,
    std::vector<std::pair<std::string, uspace::FileBlob>> files,
    std::function<void(Result<xfer::TransferStats>)> done) {
  if (files.empty()) {
    done(xfer::TransferStats{});
    return;
  }
  if (!connected()) {
    done(util::make_error(ErrorCode::kUnavailable, "not connected"));
    return;
  }
  if (config_.transfer_streams == 0) {
    // Chunking disabled: there is no client staging path at all — files
    // travel inside the AJO instead.
    done(util::make_error(ErrorCode::kFailedPrecondition,
                          "client staging requires the chunked transfer "
                          "engine"));
    return;
  }
  ++output_stats_.chunked;
  xfer::PushSpec spec;
  spec.source = "client:" + config_.user.certificate.subject.common_name;
  spec.token = token;
  spec.role = xfer::Role::kClientPush;
  std::vector<xfer::BundleFile> bundle;
  bundle.reserve(files.size());
  for (auto& [name, blob] : files)
    bundle.push_back(
        {name, std::make_shared<const uspace::FileBlob>(std::move(blob))});
  xfer_manager_.push(transfer_transport(), spec, std::move(bundle),
                     config_.transfer_options, std::move(done));
}

void UnicoreClient::fetch_tree(
    ajo::JobToken token, std::vector<std::string> names,
    std::function<void(Result<std::vector<uspace::FileBlob>>)> done) {
  if (names.empty()) {
    done(std::vector<uspace::FileBlob>{});
    return;
  }
  // With chunking disabled (or no connection) each file takes the
  // whole-blob request.
  if (config_.transfer_streams == 0 || !connected()) {
    fetch_outputs_legacy(token, std::move(names), {}, std::move(done));
    return;
  }
  ++output_stats_.chunked;
  xfer::PullSpec spec;
  spec.role = xfer::Role::kClientPull;
  spec.token = token;
  spec.names = std::move(names);
  xfer_manager_.pull(transfer_transport(), spec, config_.transfer_options,
                     [done = std::move(done)](Result<xfer::PullResult> result) {
                       if (!result)
                         done(result.error());
                       else
                         done(std::move(result.value().blobs));
                     });
}

void UnicoreClient::fetch_outputs_legacy(
    ajo::JobToken token, std::vector<std::string> names,
    std::vector<uspace::FileBlob> blobs,
    std::function<void(Result<std::vector<uspace::FileBlob>>)> done) {
  if (blobs.size() == names.size()) {
    done(std::move(blobs));
    return;
  }
  ++output_stats_.legacy;
  ByteWriter payload;
  payload.u64(token);
  payload.str(names[blobs.size()]);
  call<wire::FetchOutputCodec>(
      payload.take(),
      [this, token, names = std::move(names), blobs = std::move(blobs),
       done = std::move(done)](Result<uspace::FileBlob> r) mutable {
        if (!r) {
          done(r.error());
          return;
        }
        blobs.push_back(std::move(r).value());
        fetch_outputs_legacy(token, std::move(names), std::move(blobs),
                             std::move(done));
      });
}

void UnicoreClient::fetch_metrics(
    std::function<void(Result<obs::MetricsSnapshot>)> done) {
  call<wire::MetricsCodec>({}, std::move(done));
}

void UnicoreClient::fetch_trace(
    ajo::JobToken token,
    std::function<void(Result<obs::TraceTimeline>)> done) {
  ByteWriter payload;
  payload.u64(token);
  call<wire::TraceCodec>(payload.take(), std::move(done));
}

void UnicoreClient::inspect_journal(
    std::function<void(Result<njs::JournalInfo>)> done) {
  call<wire::JournalInspectCodec>({}, std::move(done));
}

void UnicoreClient::wait_for_completion(
    ajo::JobToken token, sim::Time interval,
    std::function<void(Result<ajo::Outcome>)> done) {
  query(token, ajo::QueryService::Detail::kTasks,
        [this, token, interval, done = std::move(done)](
            Result<ajo::Outcome> outcome) {
          if (!outcome) {
            done(outcome.error());
            return;
          }
          if (ajo::is_terminal(outcome.value().status)) {
            done(std::move(outcome));
            return;
          }
          engine_.after(interval, [this, token, interval, done] {
            wait_for_completion(token, interval, done);
          });
        });
}

// ---- portal sessions (docs/PORTAL.md) --------------------------------------

void UnicoreClient::open_session(
    std::int64_t requested_ttl_seconds,
    std::function<void(Result<gateway::SessionGrant>)> done) {
  ByteWriter payload;
  payload.i64(requested_ttl_seconds);
  // Deliberately sent plain even when a token is already adopted: the
  // gateway mints sessions only for the channel's peer certificate.
  Bytes previous = std::move(session_token_);
  session_token_.clear();
  call<wire::SessionOpenCodec>(
      payload.take(),
      [this, previous = std::move(previous),
       done = std::move(done)](Result<gateway::SessionGrant> grant) mutable {
        if (grant)
          session_token_ = grant.value().token;
        else
          session_token_ = std::move(previous);  // keep what we had
        done(std::move(grant));
      });
}

void UnicoreClient::refresh_session(
    std::function<void(Result<gateway::SessionGrant>)> done) {
  if (!has_session()) {
    done(util::make_error(ErrorCode::kFailedPrecondition,
                          "no session to refresh"));
    return;
  }
  call<wire::SessionRefreshCodec>({}, std::move(done));
}

void UnicoreClient::close_session(std::function<void(Status)> done) {
  if (!has_session()) {
    done(util::make_error(ErrorCode::kFailedPrecondition,
                          "no session to close"));
    return;
  }
  call<wire::SessionCloseCodec>(
      {}, [this, done = std::move(done)](Result<Ack> reply) {
        // The local token is dropped either way — a server that already
        // expired the session leaves the client in the same logged-out
        // state an explicit close does.
        session_token_.clear();
        if (!reply)
          done(reply.error());
        else
          done(Status::ok_status());
      });
}

// ---- managed job storages --------------------------------------------------

void UnicoreClient::list_storages(
    std::function<void(Result<std::vector<njs::StorageInfo>>)> done) {
  call<wire::StorageListCodec>({}, std::move(done));
}

void UnicoreClient::storage_files(
    ajo::JobToken token,
    std::function<void(Result<std::vector<std::string>>)> done) {
  ByteWriter payload;
  payload.u64(token);
  call<wire::StorageFilesCodec>(payload.take(), std::move(done));
}

void UnicoreClient::reap_storage(
    ajo::JobToken token, std::function<void(Result<std::uint64_t>)> done) {
  ByteWriter payload;
  payload.u64(token);
  call<wire::StorageReapCodec>(payload.take(), std::move(done));
}

}  // namespace unicore::client
