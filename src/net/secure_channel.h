// SSL-style secure channel over an Endpoint ("low-level protocol", §5.3).
//
// Mirrors the paper's https handshake (§4.1): the server first presents
// its X.509 certificate for validation, then the client's certificate is
// presented for user authentication — mutual authentication of all
// UNICORE "players". Key agreement is Diffie–Hellman; the record layer
// is encrypt-then-MAC with per-direction keys and sequence numbers.
//
// Handshake (3 messages, asynchronous):
//   client -> ClientHello  { client_random, dh_public }
//   server -> ServerHello  { server_random, dh_public, cert chain,
//                            signature over transcript }
//   client -> ClientCert   { cert chain, signature over transcript }
// Either side aborts with an Alert on validation failure; a lost
// handshake message surfaces as a timeout (the link may drop packets).
//
// Session resumption (v2 feature, see docs/PROTOCOL.md): a client
// holding a session ticket from a prior full handshake sends
// ClientHelloResumed instead; the server answers ServerHelloResumed
// (accept, 1 round trip, zero public-key operations) or HelloRetry
// (refuse — the client transparently restarts with a full ClientHello
// on the same connection).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "crypto/cipher.h"
#include "crypto/x509.h"
#include "net/network.h"
#include "net/session.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/spsc_ring.h"

namespace unicore::util {
class ThreadPool;
}

namespace unicore::net {

/// Current protocol version of the secure channel. Version 2 adds the
/// version/feature negotiation fields to the hello exchange; version 1
/// peers simply omit them and both sides fall back to the v1 feature
/// set (see PROTOCOL.md "Version negotiation").
constexpr std::uint8_t kProtocolVersion = 2;

/// Feature bits exchanged during the hello negotiation. The effective
/// feature set of a channel is the AND of what both sides advertise.
constexpr std::uint64_t kFeatureJournalInspect = 1ull << 0;
/// Peer understands the chunked transfer protocol (kXferBundleOpen /
/// kXferChunk / kXferBundleClose). Without it the sender falls back to
/// the legacy whole-blob kDeliverFile / kFetchFile requests.
constexpr std::uint64_t kFeatureChunkedXfer = 1ull << 1;
/// Peer supports session resumption (ticket in the ServerFinished tail,
/// ClientHelloResumed / ServerHelloResumed / HelloRetry messages).
constexpr std::uint64_t kFeatureResumption = 1ull << 2;
/// Peer understands kRecordBatch frames: multiple sealed records
/// coalesced into one wire message, large payloads fragmented across
/// records (see docs/PROTOCOL.md "Batched records"). Without it every
/// application message travels as a single kRecord frame.
constexpr std::uint64_t kFeatureBatchRecords = 1ull << 3;
/// Peer speaks the portal facade: gateway-issued session tokens
/// (kSessionOpen / kSessionRefresh / kSessionClose), token-authenticated
/// requests (the kTokenRequest envelope), and managed job storages
/// (kStorageList / kStorageFiles / kStorageReap). Without it the portal
/// request kinds are refused and clients stay on per-request
/// certificate authentication.
constexpr std::uint64_t kFeaturePortal = 1ull << 4;
// Bit 1 << 5 is retired (it gated bundle transfers, which every
// kFeatureChunkedXfer peer speaks); never reuse it.
constexpr std::uint64_t kDefaultFeatures =
    kFeatureJournalInspect | kFeatureChunkedXfer | kFeatureResumption |
    kFeatureBatchRecords | kFeaturePortal;

class SecureChannel : public std::enable_shared_from_this<SecureChannel> {
 public:
  struct Config {
    crypto::Credential credential;           // our identity
    const crypto::TrustStore* trust = nullptr;  // to validate the peer
    std::uint8_t required_peer_usage = 0;    // e.g. kUsageServerAuth
    sim::Time handshake_timeout = sim::sec(30);
    /// Highest protocol version we speak. Setting 1 emits v1 wire
    /// messages (no negotiation tail) — used by tests to prove
    /// backward compatibility.
    std::uint8_t protocol_version = kProtocolVersion;
    /// Features we advertise (only meaningful for version >= 2).
    std::uint64_t features = kDefaultFeatures;
    /// Server side: mints and redeems session tickets. nullptr means
    /// this server never offers resumption (resumed hellos are answered
    /// with HelloRetry and clients fall back to full handshakes).
    SessionTicketManager* ticket_manager = nullptr;
    /// Client side: cache of resumable sessions, typically shared by
    /// every channel the component opens (main channel, transfer rails,
    /// peer pool slots) so one full handshake warms them all.
    SessionCache* session_cache = nullptr;
    /// Cache key for this destination; defaults to the endpoint's
    /// remote host when empty. Owners that multiplex several logical
    /// peers over one host should set it to SessionCache::key_for().
    std::string session_key;
    /// Worker pool for the record pipeline: when set, the seal/open
    /// kernels of a multi-record batch run as a parallel_for over the
    /// records (independent buffers, order-independent results — the
    /// deterministic dispatch order is re-imposed by the ring drain).
    /// nullptr keeps all crypto on the calling thread.
    util::ThreadPool* record_pool = nullptr;
  };

  /// Fired exactly once with the handshake result.
  using EstablishedHandler = std::function<void(util::Status)>;
  /// Fired per decrypted application message.
  using MessageHandler = std::function<void(util::Bytes&&)>;

  /// Starts a client-side handshake on `endpoint`.
  static std::shared_ptr<SecureChannel> as_client(
      sim::Engine& engine, util::Rng& rng,
      std::shared_ptr<Endpoint> endpoint, Config config,
      EstablishedHandler on_established);

  /// Awaits a client handshake on `endpoint` (server side).
  static std::shared_ptr<SecureChannel> as_server(
      sim::Engine& engine, util::Rng& rng,
      std::shared_ptr<Endpoint> endpoint, Config config,
      EstablishedHandler on_established);

  /// Encrypts and sends an application message. Must not be called
  /// before the channel is established.
  void send(util::Bytes plaintext);

  /// Installs the application message handler.
  void set_receiver(MessageHandler handler);

  /// Fired when the underlying connection closes.
  void set_close_handler(std::function<void()> handler);

  void close();

  bool established() const { return state_ == State::kEstablished; }
  bool failed() const { return state_ == State::kFailed; }

  /// True when the channel was established by ticket resumption rather
  /// than a full handshake (meaningful once established).
  bool resumed() const { return resumed_; }

  /// The peer's validated certificate (only after establishment).
  const crypto::Certificate& peer_certificate() const {
    return peer_certificate_;
  }

  /// Negotiated protocol version: min of both sides' offers; 1 when the
  /// peer predates negotiation. Meaningful once established.
  std::uint8_t negotiated_version() const { return negotiated_version_; }
  /// Negotiated feature set: AND of both sides' advertised features
  /// (empty for v1 peers).
  std::uint64_t negotiated_features() const { return negotiated_features_; }
  bool feature_enabled(std::uint64_t feature) const {
    return (negotiated_features_ & feature) != 0;
  }

  const std::string& remote_host() const { return endpoint_->remote_host(); }

  /// Sequence numbers (diagnostics / tests).
  std::uint64_t messages_sent() const { return send_seq_; }
  std::uint64_t messages_received() const { return recv_seq_; }

  /// Batched-record diagnostics: wire frames carrying coalesced records
  /// in each direction (0 when the feature was not negotiated).
  std::uint64_t batch_frames_sent() const { return batch_frames_sent_; }
  std::uint64_t batch_frames_received() const {
    return batch_frames_received_;
  }

 private:
  enum class State {
    kClientAwaitServerHello,
    kClientAwaitServerFinished,
    kClientAwaitResumedReply,
    kServerAwaitClientHello,
    kServerAwaitClientCert,
    kEstablished,
    kFailed,
  };

  SecureChannel(sim::Engine& engine, util::Rng& rng,
                std::shared_ptr<Endpoint> endpoint, Config config,
                EstablishedHandler on_established, bool is_client);

  void start();
  void send_full_client_hello();
  void send_resumed_client_hello(const SessionCache::Entry& cached);
  void handle_wire_message(util::Bytes&& wire);
  void handle_server_hello(util::ByteReader& reader);
  void handle_client_hello(util::ByteReader& reader);
  void handle_client_cert(util::ByteReader& reader);
  void handle_server_finished(util::ByteReader& reader);
  void handle_client_hello_resumed(util::ByteReader& reader,
                                   const util::Bytes& wire);
  void handle_server_hello_resumed(util::ByteReader& reader);
  void handle_hello_retry();
  void handle_record(util::ByteReader& reader);
  void handle_record_batch(util::ByteReader& reader, util::Bytes& wire);
  void flush_send_queue();
  void dispatch_plaintext(util::Bytes&& plaintext);
  void drain_dispatch_ring();
  void fail(util::Error error, bool send_alert);
  void succeed();
  void derive_keys();
  void derive_resumed_keys();
  std::string session_cache_key() const;
  util::Status validate_peer(const crypto::Certificate& leaf,
                             const std::vector<crypto::Certificate>& chain);

  sim::Engine& engine_;
  util::Rng rng_;
  std::shared_ptr<Endpoint> endpoint_;
  Config config_;
  EstablishedHandler on_established_;
  MessageHandler on_message_;
  std::function<void()> on_close_;
  bool is_client_;
  State state_;

  util::Bytes client_random_;
  util::Bytes server_random_;
  crypto::DhKeyPair dh_;
  std::uint64_t peer_dh_public_ = 0;
  util::Bytes transcript_;  // running concatenation of handshake bodies
  crypto::Certificate peer_certificate_;
  std::uint8_t negotiated_version_ = 1;
  std::uint64_t negotiated_features_ = 0;
  /// PRK of the handshake (full: extracted from the DH secret; resumed:
  /// carried over from the ticket). Source material for tickets and for
  /// resumed key schedules — never sent on the wire in the clear.
  util::Bytes master_secret_;
  bool resumed_ = false;
  bool resumption_attempted_ = false;

  crypto::SymmetricKey send_enc_, send_mac_, recv_enc_, recv_mac_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  std::optional<sim::EventId> timeout_event_;

  // --- batched record pipeline (kFeatureBatchRecords) -------------------
  /// Messages queued by send() awaiting the end-of-instant flush that
  /// coalesces them into kRecordBatch frames.
  std::vector<util::Bytes> send_queue_;
  bool flush_scheduled_ = false;
  /// Reassembly buffer for a fragmented message in progress (flags 1/2/3
  /// records); sized once from the first fragment's announced total.
  util::Bytes reassembly_;
  std::size_t reassembly_expected_ = 0;
  /// Decrypt -> dispatch hand-off: the open stage (possibly fanned out on
  /// the record pool) pushes plaintexts, the drain calls the application
  /// handler in record order.
  util::SpscRing<util::Bytes> dispatch_ring_{256};
  std::uint64_t batch_frames_sent_ = 0;
  std::uint64_t batch_frames_received_ = 0;
};

}  // namespace unicore::net
