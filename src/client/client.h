// The user-level tier (§4.1): the client a user's workstation runs.
//
// Connecting mirrors the paper's flow: an https-like mutually
// authenticated channel to the Usite server (the SSL handshake
// validates the server certificate, then presents the user's), followed
// by download and signature verification of the current JPA/JMC
// software bundle ("the users always work with the latest version of
// the software", §4.1). JPA operations prepare and consign jobs; JMC
// operations monitor, control, and retrieve output — by polling, as in
// the paper ("the current implementation sends data back to the
// workstation only on user request while the user is working with the
// JMC", §5.6).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "crypto/bundle.h"
#include "crypto/x509.h"
#include "gateway/session_broker.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "njs/cluster.h"
#include "njs/njs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resources/resource_page.h"
#include "server/protocol.h"
#include "server/reply_table.h"
#include "server/xfer_transport.h"
#include "uspace/blob.h"
#include "util/result.h"
#include "util/retry.h"
#include "xfer/transfer.h"

namespace unicore::client {

/// Reply type of request kinds whose success carries no payload.
struct Ack {};

/// Per-request codec traits: each RequestKind the client speaks is one
/// struct binding the kind, its reply type, and the reply decoder. The
/// generic UnicoreClient::call<Codec>() template supplies everything
/// else (the reply table's ids, timeout and error replies, plus
/// malformed-payload handling), so adding a request kind is one codec +
/// one thin wrapper. Replies reuse the server's types and their codecs:
/// njs::JobSummary and njs::StorageInfo rows, njs::JournalInfo,
/// gateway::SessionGrant, ajo::Outcome, uspace::FileBlob and the obs
/// snapshots. A decoder returns its value; malformed bytes fail the
/// reader, which call<Codec>() checks.
namespace wire {

struct ConsignCodec {
  using Reply = ajo::JobToken;
  static constexpr server::RequestKind kKind = server::RequestKind::kConsign;
  static constexpr const char* kName = "consign";
  static Reply decode(util::ByteReader& r) { return ajo::JobToken{r.u64()}; }
};

struct QueryCodec {
  using Reply = ajo::Outcome;
  static constexpr server::RequestKind kKind = server::RequestKind::kQuery;
  static constexpr const char* kName = "query";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct ListCodec {
  using Reply = std::vector<njs::JobSummary>;
  static constexpr server::RequestKind kKind = server::RequestKind::kList;
  static constexpr const char* kName = "list";
  static Reply decode(util::ByteReader& r) {
    return r.list<njs::JobSummary>();
  }
};

struct ControlCodec {
  using Reply = Ack;
  static constexpr server::RequestKind kKind = server::RequestKind::kControl;
  static constexpr const char* kName = "control";
  static Reply decode(util::ByteReader&) { return {}; }
};

struct FetchOutputCodec {
  using Reply = uspace::FileBlob;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kFetchOutput;
  static constexpr const char* kName = "output";
  static Reply decode(util::ByteReader& r) {
    return uspace::FileBlob::decode(r);
  }
};

struct ResourcePagesCodec {
  using Reply = std::vector<resources::ResourcePage>;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kResourcePages;
  static constexpr const char* kName = "resource page";
  static Reply decode(util::ByteReader& r) {
    std::uint64_t count = r.count();
    Reply pages;
    pages.reserve(count);
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      auto page = resources::ResourcePage::decode(r.blob());
      if (page)
        pages.push_back(std::move(page.value()));
      else
        r.fail(page.error());
    }
    return pages;
  }
};

struct BundleCodec {
  using Reply = crypto::SoftwareBundle;
  static constexpr server::RequestKind kKind = server::RequestKind::kGetBundle;
  static constexpr const char* kName = "bundle";
  static Reply decode(util::ByteReader& r) {
    auto bundle = crypto::SoftwareBundle::decode(r.raw(r.remaining()));
    if (!bundle) {
      r.fail(bundle.error());
      return {};
    }
    return std::move(bundle.value());
  }
};

struct MetricsCodec {
  using Reply = obs::MetricsSnapshot;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kMonitorMetrics;
  static constexpr const char* kName = "metrics";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct TraceCodec {
  using Reply = obs::TraceTimeline;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kMonitorTrace;
  static constexpr const char* kName = "trace";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct JournalInspectCodec {
  using Reply = njs::JournalInfo;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kJournalInspect;
  static constexpr const char* kName = "journal";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct SessionOpenCodec {
  using Reply = gateway::SessionGrant;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kSessionOpen;
  static constexpr const char* kName = "session-open";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct SessionRefreshCodec {
  using Reply = gateway::SessionGrant;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kSessionRefresh;
  static constexpr const char* kName = "session-refresh";
  static Reply decode(util::ByteReader& r) { return Reply::decode(r); }
};

struct SessionCloseCodec {
  using Reply = Ack;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kSessionClose;
  static constexpr const char* kName = "session-close";
  static Reply decode(util::ByteReader&) { return {}; }
};

struct StorageListCodec {
  using Reply = std::vector<njs::StorageInfo>;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kStorageList;
  static constexpr const char* kName = "storage-list";
  static Reply decode(util::ByteReader& r) {
    return r.list<njs::StorageInfo>();
  }
};

struct StorageFilesCodec {
  using Reply = std::vector<std::string>;
  static constexpr server::RequestKind kKind =
      server::RequestKind::kStorageFiles;
  static constexpr const char* kName = "storage-files";
  static Reply decode(util::ByteReader& r) { return r.strings(); }
};

struct StorageReapCodec {
  using Reply = std::uint64_t;  // bytes freed
  static constexpr server::RequestKind kKind =
      server::RequestKind::kStorageReap;
  static constexpr const char* kName = "storage-reap";
  static Reply decode(util::ByteReader& r) { return r.u64(); }
};

}  // namespace wire

class UnicoreClient {
 public:
  struct Config {
    std::string host;  // the user's workstation host name
    crypto::Credential user;
    const crypto::TrustStore* trust = nullptr;
    /// Per-request timeout; a lost message surfaces as kTimeout and the
    /// caller decides whether to retry (the asynchronous high-level
    /// protocol of §5.3). submit_with_retry backs off between attempts
    /// by the default util::BackoffPolicy.
    sim::Time request_timeout = sim::sec(60);
    /// Streams for chunked output retrieval (stream 0 rides the main
    /// channel; the rest are extra rails). 0 disables the chunked
    /// engine and every fetch_output uses the whole-blob request.
    std::size_t transfer_streams = 4;
    /// Sender-side tuning of chunked pulls (window, inline limit, ...).
    xfer::TransferOptions transfer_options;
  };

  UnicoreClient(sim::Engine& engine, net::Network& network, util::Rng& rng,
                Config config);
  ~UnicoreClient();

  UnicoreClient(const UnicoreClient&) = delete;
  UnicoreClient& operator=(const UnicoreClient&) = delete;

  // --- connection -----------------------------------------------------
  void connect(net::Address usite, std::function<void(util::Status)> done);
  /// connect() across a replica ring (UsiteServer::route_addresses):
  /// tries each address in order, skipping dead listeners and failed
  /// handshakes, and succeeds on the first replica that answers. Fails
  /// with the last error when every address is dead.
  void connect_any(std::vector<net::Address> addresses,
                   std::function<void(util::Status)> done);
  bool connected() const;
  void disconnect();

  const crypto::Credential& user() const { return config_.user; }

  // --- software bundle ("applet") --------------------------------------
  /// Downloads a named bundle and verifies its code signature against
  /// the trust store before returning it.
  void fetch_bundle(
      const std::string& name,
      std::function<void(util::Result<crypto::SoftwareBundle>)> done);

  // --- JPA --------------------------------------------------------------
  void fetch_resource_pages(
      std::function<void(util::Result<std::vector<resources::ResourcePage>>)>
          done);

  /// Signs `job` with the user credential and consigns it.
  void submit(const ajo::AbstractJobObject& job,
              std::function<void(util::Result<ajo::JobToken>)> done);

  /// submit() with up to `attempts` tries on transport failure
  /// (reconnecting in between) — the retry loop an asynchronous protocol
  /// affords (§5.3).
  void submit_with_retry(const ajo::AbstractJobObject& job, int attempts,
                         std::function<void(util::Result<ajo::JobToken>)>
                             done);

  // --- JMC --------------------------------------------------------------
  void query(ajo::JobToken token, ajo::QueryService::Detail detail,
             std::function<void(util::Result<ajo::Outcome>)> done);
  void list(
      std::function<void(util::Result<std::vector<njs::JobSummary>>)> done);
  void control(ajo::JobToken token, ajo::ControlService::Command command,
               std::function<void(util::Status)> done);
  void fetch_output(ajo::JobToken token, const std::string& name,
                    std::function<void(util::Result<uspace::FileBlob>)> done);

  // --- bundle staging (docs/DATA.md §3) ---------------------------------
  /// Stages a whole file tree into job `token`'s Uspace as bundles (one
  /// manifest round trip per xfer::kMaxBundleFiles slice). With
  /// transfer_streams = 0 it fails kFailedPrecondition (stage files
  /// inside the AJO instead).
  void push_tree(ajo::JobToken token,
                 std::vector<std::pair<std::string, uspace::FileBlob>> files,
                 std::function<void(util::Result<xfer::TransferStats>)> done);
  /// Fetches many outputs of job `token` in request order — as bundles
  /// through the chunked engine, or one whole-blob request per file when
  /// transfer_streams = 0. fetch_output is the one-file case.
  void fetch_tree(
      ajo::JobToken token, std::vector<std::string> names,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done);

  /// Polls query() every `interval` until the job is terminal.
  void wait_for_completion(ajo::JobToken token, sim::Time interval,
                           std::function<void(util::Result<ajo::Outcome>)>
                               done);

  // --- portal sessions (docs/PORTAL.md) ---------------------------------
  /// Asks the gateway for a bearer token bound to this client's
  /// certificate identity. `requested_ttl_seconds` of 0 accepts the
  /// broker default; larger requests are clamped. On success the grant's
  /// token is adopted: every subsequent eligible request rides the
  /// kTokenRequest envelope and submit() consigns unsigned AJOs.
  void open_session(
      std::int64_t requested_ttl_seconds,
      std::function<void(util::Result<gateway::SessionGrant>)> done);
  /// Extends the adopted session's expiry by one TTL.
  void refresh_session(
      std::function<void(util::Result<gateway::SessionGrant>)> done);
  /// Explicit logout: invalidates the token server-side and drops it.
  void close_session(std::function<void(util::Status)> done);

  /// Adopts a token minted elsewhere (e.g. over another connection —
  /// the portal pattern: many user sessions multiplexed over few pooled
  /// channels). An empty token reverts to certificate authentication.
  void set_session_token(util::Bytes token) {
    session_token_ = std::move(token);
  }
  const util::Bytes& session_token() const { return session_token_; }
  bool has_session() const { return !session_token_.empty(); }

  // --- managed job storages (docs/PORTAL.md) ----------------------------
  /// Lists the caller's per-job working storages at the Usite.
  void list_storages(
      std::function<void(util::Result<std::vector<njs::StorageInfo>>)> done);
  /// Names of the files in one job's storage (sub-job files prefixed).
  void storage_files(
      ajo::JobToken token,
      std::function<void(util::Result<std::vector<std::string>>)> done);
  /// Empties a finished job's storage; resolves to the bytes freed.
  void reap_storage(ajo::JobToken token,
                    std::function<void(util::Result<std::uint64_t>)> done);

  // --- MonitorService ----------------------------------------------------
  /// Fetches the Usite's current metrics snapshot (gateway, NJS, batch,
  /// and — with a grid-shared registry — network series).
  void fetch_metrics(
      std::function<void(util::Result<obs::MetricsSnapshot>)> done);
  /// Fetches the recorded trace timeline of one of the caller's jobs.
  void fetch_trace(ajo::JobToken token,
                   std::function<void(util::Result<obs::TraceTimeline>)> done);
  /// Fetches the NJS journal / recovery diagnostics.
  void inspect_journal(
      std::function<void(util::Result<njs::JournalInfo>)> done);

  /// Sends one chunked-transfer operation over the *main* channel
  /// (stream 0 of the hybrid transport; extra streams ride XferRails).
  void xfer_call(xfer::Op op, util::Bytes body,
                 std::function<void(util::Result<util::Bytes>)> done);

  // --- diagnostics ---------------------------------------------------------
  std::uint64_t requests_sent() const { return requests_sent_; }
  /// Requests that timed out or died with the connection; error replies
  /// do not count.
  std::uint64_t requests_failed() const { return replies_.failed(); }
  /// Which wire path each fetch and push took: the chunked engine (one
  /// count per call, any file count), or whole blobs (one count per
  /// file; transfer_streams = 0).
  const server::TransferStats& output_stats() const { return output_stats_; }
  /// True when the current channel was established by session
  /// resumption (a reconnect that skipped the public-key handshake).
  bool session_resumed() const {
    return channel_ != nullptr && channel_->resumed();
  }
  /// The client's session cache (main channel and rails share it).
  net::SessionCache& sessions() { return sessions_; }

 private:
  // --- the generic request path (internal) -------------------------------
  /// Sends one request of `Codec`'s kind and decodes the reply with its
  /// codec. All named operations above are thin wrappers around this;
  /// callers outside the client use those, not this free-form payload
  /// overload. A reply payload the codec cannot read whole fails the
  /// call with kInvalidArgument.
  template <typename Codec>
  void call(util::Bytes payload,
            std::function<void(util::Result<typename Codec::Reply>)> done) {
    send_request(
        Codec::kKind, std::move(payload),
        [done = std::move(done)](util::Result<util::Bytes> reply) {
          if (!reply) return done(reply.error());
          util::ByteReader reader{reply.value()};
          typename Codec::Reply value = Codec::decode(reader);
          if (util::Status status = reader.finish(); !status.ok())
            return done(util::make_error(
                util::ErrorCode::kInvalidArgument,
                std::string("malformed ") + Codec::kName +
                    " reply: " + status.error().message));
          done(std::move(value));
        });
  }

  void send_request(server::RequestKind kind, util::Bytes payload,
                    std::function<void(util::Result<util::Bytes>)> on_reply);
  std::shared_ptr<xfer::ChunkTransport> transfer_transport();
  /// fetch_tree with chunking off: one whole-blob kFetchOutput per file,
  /// in order, appending to `blobs`.
  void fetch_outputs_legacy(
      ajo::JobToken token, std::vector<std::string> names,
      std::vector<uspace::FileBlob> blobs,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done);

  sim::Engine& engine_;
  net::Network& network_;
  util::Rng rng_;
  Config config_;
  net::Address usite_address_;
  std::shared_ptr<net::SecureChannel> channel_;
  net::SessionCache sessions_;
  bool established_ = false;

  /// Requests in flight on the main channel, all on slot 0.
  server::ReplyTable replies_;
  std::uint64_t requests_sent_ = 0;

  xfer::TransferManager xfer_manager_;
  std::shared_ptr<xfer::ChunkTransport> transport_;
  /// Guards the main-channel leg of in-flight transfers against the
  /// client being destroyed while the engine still runs.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  server::TransferStats output_stats_;
  /// The adopted portal session token; empty = certificate auth.
  util::Bytes session_token_;
};

}  // namespace unicore::client
