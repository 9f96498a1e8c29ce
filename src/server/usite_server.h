// The UNICORE server of one Usite (§4.2): the https-like front end that
// serves resource pages and signed software bundles, the gateway
// (security servlet), and the NJS — deployable combined on one host or
// split across a firewall:
//
// "For sites using firewalls the UNICORE server can be separated into
//  the Web server and the NJS part with the firewall in between. ...
//  The communication between the two components is done via IP socket
//  connection to a site selectable port." (§4.2/§5.2)
//
// The server also implements njs::PeerLink: sub-AJOs, files, and control
// commands travel to peer Usites over mutually authenticated secure
// channels to the *peer's* gateway (§4.3, §5.6).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bundle.h"
#include "gateway/gateway.h"
#include "gateway/session_broker.h"
#include "net/channel_pool.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "net/session.h"
#include "njs/cluster.h"
#include "njs/njs.h"
#include "njs/peer_link.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/xfer_transport.h"
#include "store/chunk_store.h"
#include "util/chash.h"
#include "util/result.h"
#include "util/retry.h"
#include "xfer/service.h"
#include "xfer/transfer.h"

namespace unicore::server {

struct UsiteConfig {
  std::string name;           // e.g. "FZ-Juelich"
  std::string gateway_host;   // public host (on the firewall if split)
  std::uint16_t port = 4433;  // the https-like port
  /// Empty or equal to gateway_host => combined deployment; otherwise
  /// the NJS runs on this host behind the firewall.
  std::string njs_host;
  std::uint16_t njs_port = 7700;  // the "site selectable port"

  // Horizontal scale-out (docs/SCALING.md). Gateway replica g listens
  // on port+g; all replicas share the trust store, UUDB, auth cache,
  // session broker, and ticket mint, so any client token or resumption
  // ticket validates on any replica. NJS replica i owns partition i of
  // the token space; consignments hash across the alive replicas and a
  // replica failure hands its journal to a surviving peer.
  std::size_t gateway_replicas = 1;
  std::size_t njs_replicas = 1;

  bool split() const {
    return !njs_host.empty() && njs_host != gateway_host;
  }
  std::string njs_side_host() const {
    return split() ? njs_host : gateway_host;
  }
};

class UsiteServer : public njs::PeerLink {
 public:
  UsiteServer(sim::Engine& engine, net::Network& network, util::Rng& rng,
              UsiteConfig config, crypto::Credential server_credential,
              crypto::TrustStore trust, gateway::UserDatabase uudb);
  ~UsiteServer() override;

  UsiteServer(const UsiteServer&) = delete;
  UsiteServer& operator=(const UsiteServer&) = delete;

  /// Binds the public listener (and the internal gateway–NJS pipe when
  /// split). Must be called once before any traffic.
  util::Status start();

  const UsiteConfig& config() const { return config_; }
  net::Address address() const { return {config_.gateway_host, config_.port}; }
  gateway::Gateway& gateway() { return gateway_; }
  njs::Njs& njs() { return njs_cluster_.primary(); }
  /// The portal-session mint/validator (docs/PORTAL.md).
  gateway::SessionBroker& session_broker() { return session_broker_; }

  // --- scale-out (docs/SCALING.md) ------------------------------------

  /// The NJS replica set behind this Usite (primary() == njs()).
  njs::NjsCluster& njs_cluster() { return njs_cluster_; }
  /// Gateway replica `index` (0 == gateway()); all replicas share auth
  /// state, so they differ only in listener address and audit trail.
  gateway::Gateway& gateway_replica(std::size_t index) {
    return index == 0 ? gateway_ : *gateway_replicas_[index - 1];
  }
  std::size_t gateway_replica_count() const {
    return 1 + gateway_replicas_.size();
  }
  /// Every public listener address, replica order (port, port+1, …).
  std::vector<net::Address> gateway_addresses() const;
  /// The listener a client with `dn` should contact: consistent-hash
  /// routing over the replica addresses.
  net::Address route_address(const crypto::DistinguishedName& dn) const;
  /// Failover order for `dn`: the ring owner first, then every other
  /// alive replica clockwise. A client whose connect (or session) dies
  /// tries the next entry — stopped replicas never appear.
  std::vector<net::Address> route_addresses(
      const crypto::DistinguishedName& dn) const;
  /// Kills gateway replica `index` (fault injection / drain): closes
  /// its listener and every session it accepted, and removes it from
  /// the routing ring so route_address re-routes around it.
  void stop_gateway_replica(std::size_t index);

  /// Modeled per-request processing cost of one gateway replica. Each
  /// replica is a serial server: its requests queue behind each other
  /// (M/D/1 per replica), so adding replicas adds real capacity. 0 (the
  /// default) models infinitely fast gateways — exactly the pre-scale-
  /// out behaviour.
  void set_gateway_service_time(sim::Time cost) {
    gateway_service_time_ = cost;
  }
  /// Modeled per-consignment admission cost of one NJS replica,
  /// serialized per replica like the gateway service time. 0 default.
  void set_njs_admission_cost(sim::Time cost) { njs_admission_cost_ = cost; }

  /// Installs default-deny firewall rules for a split deployment: only
  /// the gateway host may reach the NJS port.
  void apply_firewall_rules();

  /// Registers the gateway address of a peer Usite for NJS–NJS traffic.
  void add_peer(const std::string& usite, net::Address gateway_address);

  /// Publishes a signed client software bundle (the "applet", §5.2).
  void publish_bundle(crypto::SoftwareBundle bundle);

  // --- njs::PeerLink --------------------------------------------------
  void consign(const std::string& usite,
               const njs::ForwardedConsignment& consignment,
               std::function<void(util::Result<njs::RemoteJobHandle>)>
                   on_accepted,
               std::function<void(ajo::Outcome)> on_final) override;
  void deliver_file(const njs::RemoteJobHandle& target,
                    const std::string& uspace_name,
                    std::shared_ptr<const uspace::FileBlob> blob,
                    std::function<void(util::Status)> done) override;
  void fetch_files(const njs::RemoteJobHandle& source,
                   std::vector<std::string> names,
                   std::function<
                       void(util::Result<std::vector<uspace::FileBlob>>)>
                       done) override;
  void control(const njs::RemoteJobHandle& target,
               ajo::ControlService::Command command,
               std::function<void(util::Status)> done) override;

  // --- file movement outside the NJS's own calls ------------------------
  /// Named files of a batch delivery.
  using Files =
      std::vector<std::pair<std::string,
                            std::shared_ptr<const uspace::FileBlob>>>;
  /// Batch staging: one bundle manifest round trip for the whole set
  /// through the transfer engine. An empty `files` succeeds immediately.
  void deliver_files(const njs::RemoteJobHandle& target, Files files,
                     std::function<void(util::Status)> done);

  // Diagnostics.
  std::uint64_t requests_served() const { return requests_served_; }
  /// Peer requests re-sent after a retryable failure (timeouts, link
  /// loss) — each retry is covered by the consignment idempotency key.
  std::uint64_t peer_retries() const { return peer_retries_; }

  /// Retry/backoff parameters for NJS–NJS peer requests.
  void set_peer_backoff(util::BackoffPolicy policy) {
    peer_backoff_ = policy;
  }
  /// Per-request deadline after which a peer request fails kTimeout.
  void set_peer_request_timeout(sim::Time timeout) {
    peer_request_timeout_ = timeout;
  }

  /// The listener's session-ticket mint — tests invalidate it to prove
  /// that resumed handshakes are refused after a revocation event.
  net::SessionTicketManager& ticket_manager() { return ticket_manager_; }
  /// This server's outbound session cache (peer pools and transfer
  /// rails share it, so one full handshake per peer warms everything).
  net::SessionCache& peer_sessions() { return peer_sessions_; }

  /// Shares a deployment-wide registry (set by the grid layer so one
  /// MonitorService snapshot covers gateway, NJS, batch, and network).
  /// By default the server uses the registry its NJS created.
  void set_metrics(std::shared_ptr<obs::MetricsRegistry> registry);
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

  // --- chunked transfer engine (src/xfer/) ----------------------------

  /// Sender-side tuning (window, retry ladder).
  void set_transfer_options(const xfer::TransferOptions& options) {
    transfer_options_ = options;
  }
  const xfer::TransferOptions& transfer_options() const {
    return transfer_options_;
  }
  /// Single files of at least this many bytes move through the chunked
  /// engine; smaller ones use the whole-blob requests. Batches
  /// (deliver_files) ride the engine at any size. UINT64_MAX disables
  /// single-file pushes and all pulls, which is how benches measure the
  /// whole-blob baseline.
  void set_transfer_threshold(std::uint64_t bytes) {
    transfer_threshold_ = bytes;
  }
  std::uint64_t transfer_threshold() const { return transfer_threshold_; }
  /// Parallel secure channels per peer transfer ("rails").
  void set_transfer_streams(std::size_t streams) {
    transfer_streams_ = streams == 0 ? 1 : streams;
  }

  xfer::Service& xfer_service() { return *xfer_services_[0]; }
  /// NJS replica `index`'s transfer receiver (0 == xfer_service()).
  xfer::Service& xfer_service_replica(std::size_t index) {
    return *xfer_services_[index];
  }
  xfer::TransferManager& transfer_manager() { return xfer_manager_; }
  /// The site's content-addressed chunk store (shared by the NJS and
  /// the transfer receiver). Configure spill/budget through it.
  const std::shared_ptr<store::ChunkStore>& chunk_store() {
    return chunk_store_;
  }
  /// Which path outbound transfers took: chunked engine, or whole blobs
  /// (sub-threshold size, or the engine disabled).
  const TransferStats& transfer_stats() const { return transfer_stats_; }

 private:
  struct ClientSession;
  struct PeerConnection;
  struct PendingPipeRequest;

  void accept_session(std::shared_ptr<net::Endpoint> endpoint,
                      std::size_t gateway_index);
  /// Entry point for inbound session messages: applies the gateway
  /// replica's modeled service-time queue, then processes.
  void handle_session_message(const std::shared_ptr<ClientSession>& session,
                              util::Bytes&& wire);
  void process_session_message(const std::shared_ptr<ClientSession>& session,
                               util::Bytes&& wire);
  /// `token` carries the session-token blob of a kTokenRequest envelope
  /// (portal facade); empty for plain kRequest messages.
  void handle_request(const std::shared_ptr<ClientSession>& session,
                      RequestKind kind, std::uint64_t request_id,
                      util::ByteReader& payload,
                      const std::optional<util::Bytes>& token);

  /// Runs the NJS part of a request. In a split deployment the packed
  /// request crosses the internal pipe; combined, it executes directly.
  void execute_at_njs(std::uint64_t session_id, util::Bytes packed,
                      std::function<void(util::Bytes)> reply);
  /// The NJS-side executor (runs on the NJS host). When a consignment
  /// is admitted under a modeled admission cost, `*ready_at` is set to
  /// when the owning replica's admission queue drains — the caller
  /// holds the reply until then.
  util::Bytes njs_execute(std::uint64_t session_id, util::ByteReader& packed,
                          sim::Time* ready_at = nullptr);
  /// Sends a raw wire message (reply or notification) toward a session,
  /// crossing the pipe first when running split.
  void notify_session_raw(std::uint64_t session_id, util::Bytes wire);
  void deliver_to_session(std::uint64_t session_id, util::Bytes wire);

  // Pipe plumbing (split mode).
  void handle_pipe_server_message(util::Bytes&& wire);  // NJS side
  void handle_pipe_client_message(util::Bytes&& wire);  // gateway side

  // Peer connections.
  PeerConnection& peer_connection(const std::string& usite);
  void fail_peer_slot(const std::string& usite, std::size_t slot,
                      const util::Error& error);
  void handle_peer_message(const std::string& usite, std::size_t slot,
                           util::Bytes&& wire);
  void send_peer_request(const std::string& usite, RequestKind kind,
                         util::Bytes payload,
                         std::function<void(util::Result<util::Bytes>)>
                             on_reply);
  /// send_peer_request plus the fault-tolerance envelope: a per-request
  /// timeout, exponential backoff retries on retryable errors, and a
  /// per-peer circuit breaker that fails fast while a peer is down.
  void peer_call(const std::string& usite, RequestKind kind,
                 util::Bytes payload, int attempt,
                 std::function<void(util::Result<util::Bytes>)> on_reply);

  // Chunked transfer plumbing.
  /// The rail bundle toward a peer's gateway (created lazily, reused
  /// across transfers to the same Usite).
  std::shared_ptr<XferRails> peer_rails(const std::string& usite);
  /// Pushes `files` through the transfer engine.
  void push_files(const njs::RemoteJobHandle& target, Files files,
                  std::function<void(util::Status)> done);
  /// The paper's §5.6 path, for files under the transfer threshold and
  /// for fetches with the engine disabled: one whole-blob kDeliverFile /
  /// kFetchFile request per file, in order.
  void deliver_whole_blobs(const njs::RemoteJobHandle& target, Files files,
                           std::size_t next,
                           std::function<void(util::Status)> done);
  void fetch_whole_blobs(
      const njs::RemoteJobHandle& source, std::vector<std::string> names,
      std::vector<uspace::FileBlob> blobs,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done);

  sim::Engine& engine_;
  net::Network& network_;
  util::Rng rng_;
  UsiteConfig config_;
  crypto::Credential credential_;
  gateway::Gateway gateway_;
  /// Gateway replicas 1..G-1 (replica 0 is gateway_); they share
  /// gateway_'s trust store, UUDB, and auth cache.
  std::vector<std::unique_ptr<gateway::Gateway>> gateway_replicas_;
  /// Consistent-hash ring over the replica indices for route_address.
  util::ConsistentHash gateway_ring_;
  /// Modeled service-time queues (one serial server per replica).
  sim::Time gateway_service_time_ = 0;
  sim::Time njs_admission_cost_ = 0;
  std::vector<sim::Time> gateway_busy_until_;
  std::vector<sim::Time> njs_busy_until_;
  njs::NjsCluster njs_cluster_;
  gateway::SessionBroker session_broker_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  /// The request series of one RequestKind, resolved on that kind's
  /// first request and dropped by set_metrics.
  struct RequestSeries {
    obs::Counter* requests = nullptr;   // unicore_server_requests_total
    obs::Histogram* latency = nullptr;  // ..._request_latency_seconds
  };
  /// Indexed by the kind's wire byte.
  std::array<RequestSeries, 256> request_series_{};
  xfer::TransferManager xfer_manager_;
  /// One transfer receiver per NJS replica, ids strided to its
  /// partition so chunks and closes route back to their minter.
  std::vector<std::unique_ptr<xfer::Service>> xfer_services_;
  std::shared_ptr<store::ChunkStore> chunk_store_;
  xfer::TransferOptions transfer_options_;
  std::uint64_t transfer_threshold_ = 4ull * 1024 * 1024;
  std::size_t transfer_streams_ = 4;
  std::map<std::string, std::shared_ptr<XferRails>> peer_rails_;
  TransferStats transfer_stats_;
  std::map<std::string, crypto::SoftwareBundle> bundles_;

  std::map<std::uint64_t, std::shared_ptr<ClientSession>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::map<std::string, net::Address> peers_;
  std::map<std::string, std::unique_ptr<PeerConnection>> peer_connections_;
  /// Warm secure channels kept per peer Usite for NJS–NJS requests.
  static constexpr std::size_t kPeerPoolSize = 2;
  net::SessionTicketManager ticket_manager_;
  net::SessionCache peer_sessions_;
  std::map<std::string, util::CircuitBreaker> peer_breakers_;
  util::BackoffPolicy peer_backoff_;
  sim::Time peer_request_timeout_ = sim::sec(60);
  std::uint64_t peer_retries_ = 0;

  // Split-mode pipe endpoints (gateway-side client, NJS-side server).
  std::shared_ptr<net::Endpoint> pipe_client_;
  std::shared_ptr<net::Endpoint> pipe_server_;
  std::map<std::uint64_t, std::function<void(util::Bytes)>> pipe_pending_;
  std::uint64_t next_pipe_id_ = 1;

  std::uint64_t requests_served_ = 0;
  bool started_ = false;
};

}  // namespace unicore::server
