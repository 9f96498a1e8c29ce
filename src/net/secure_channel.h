// SSL-style secure channel over an Endpoint ("low-level protocol", §5.3).
//
// Mirrors the paper's https handshake (§4.1): the server first presents
// its X.509 certificate for validation, then the client's certificate is
// presented for user authentication — mutual authentication of all
// UNICORE "players". Key agreement is Diffie–Hellman; the record layer
// is encrypt-then-MAC with per-direction keys and sequence numbers.
//
// Handshake (3 messages, asynchronous):
//   client -> ClientHello  { client_random, dh_public, version, features }
//   server -> ServerHello  { server_random, dh_public, cert chain,
//                            version, features, signature over transcript }
//   client -> ClientCert   { cert chain, signature over transcript }
// Either side aborts with an Alert on validation failure; a lost
// handshake message surfaces as a timeout (the link may drop packets).
//
// Session resumption (see docs/PROTOCOL.md): a client holding a session
// ticket from a prior full handshake sends ClientHelloResumed instead;
// the server answers ServerHelloResumed
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

namespace unicore::net {

/// The secure channel's one protocol version. Every hello and every
/// reply carries it; a peer that sends another value, or omits the
/// field, is refused with an alert (see PROTOCOL.md "Version
/// negotiation").
constexpr std::uint8_t kProtocolVersion = 2;

/// The fixed feature word carried beside the version, in the signed
/// ServerHello echo, in ServerHelloResumed and in session tickets. Its
/// bits 0-4 once gated journal inspect, chunked transfer, resumption,
/// batched records and the portal facade, and bit 5 gated bundle
/// transfers; every peer now speaks all of them, so the bits are retired
/// gates and a bit is never reused. The field stays so that a later
/// version can negotiate again; a peer that sends another word is
/// refused.
constexpr std::uint64_t kChannelFeatures = 0x1F;

class SecureChannel : public std::enable_shared_from_this<SecureChannel> {
 public:
  struct Config {
    crypto::Credential credential;           // our identity
    const crypto::TrustStore* trust = nullptr;  // to validate the peer
    std::uint8_t required_peer_usage = 0;    // e.g. kUsageServerAuth
    sim::Time handshake_timeout = sim::sec(30);
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

  const std::string& remote_host() const { return endpoint_->remote_host(); }

  /// Sequence numbers (diagnostics / tests).
  std::uint64_t messages_sent() const { return send_seq_; }
  std::uint64_t messages_received() const { return recv_seq_; }

  /// Batched-record diagnostics: wire frames carrying coalesced records
  /// in each direction.
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
  void handle_record_batch(util::ByteReader& reader, util::Bytes& wire);
  void flush_send_queue();
  void fail(util::Error error, bool send_alert);
  void succeed();
  void derive_keys();
  void derive_resumed_keys();
  std::string session_cache_key() const;
  /// Validates a peer chain, leaf first.
  util::Status validate_peer(const std::vector<crypto::Certificate>& chain);

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

  // --- batched record pipeline ------------------------------------------
  /// Messages queued by send() awaiting the end-of-instant flush that
  /// coalesces them into kRecordBatch frames.
  std::vector<util::Bytes> send_queue_;
  bool flush_scheduled_ = false;
  /// Reassembly buffer for a fragmented message in progress (flags 1/2/3
  /// records); sized once from the first fragment's announced total.
  util::Bytes reassembly_;
  std::size_t reassembly_expected_ = 0;
  std::uint64_t batch_frames_sent_ = 0;
  std::uint64_t batch_frames_received_ = 0;
};

}  // namespace unicore::net
