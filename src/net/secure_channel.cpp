#include "net/secure_channel.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "util/log.h"

namespace unicore::net {

using crypto::Certificate;
using util::Bytes;
using util::ByteReader;
using util::ByteWriter;
using util::Error;
using util::ErrorCode;
using util::Status;

namespace {

enum MessageType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kClientCert = 3,
  // 4 was kRecord, the single-record frame; retired, never reuse it.
  kAlert = 5,
  kServerFinished = 6,  // key confirmation after client-cert validation
  kClientHelloResumed = 7,
  kServerHelloResumed = 8,
  kHelloRetry = 9,  // resumption refused: restart with a full ClientHello
  kRecordBatch = 10,  // coalesced records
};

// Batched record framing limits. A record within a batch carries at most
// kFragmentLimit plaintext bytes — larger messages are split into
// fragment records (flags below) that the receiver reassembles. A frame
// coalesces records up to roughly kMaxFrameBytes of payload.
constexpr std::size_t kFragmentLimit = 256 * 1024;
constexpr std::size_t kMaxFrameBytes = 1024 * 1024;
constexpr std::uint64_t kMaxRecordsPerFrame = 4096;
/// Upper bound a peer can announce for a fragmented message — caps the
/// reassembly allocation a corrupt length field could demand.
constexpr std::uint64_t kMaxReassemblyBytes = 1ull << 30;

// Per-record fragmentation flags (authenticated via the record AAD).
enum RecordFlags : std::uint8_t {
  kComplete = 0,  // one record == one application message
  kFirst = 1,     // first fragment; carries the total plaintext size
  kMiddle = 2,
  kFinal = 3,
};

/// Record AAD: direction byte + big-endian sequence number + the
/// fragmentation flags (plus the announced total for first fragments),
/// so a tampered flag or total fails the MAC, not the reassembly.
std::size_t encode_batch_aad(std::uint8_t* out, std::uint8_t direction,
                             std::uint64_t seq, std::uint8_t flags,
                             std::uint64_t total) {
  out[0] = direction;
  for (int i = 0; i < 8; ++i)
    out[1 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  std::size_t n = 9;
  out[n++] = flags;
  if (flags == kFirst)
    for (int i = 0; i < 8; ++i)
      out[n++] = static_cast<std::uint8_t>(total >> (56 - 8 * i));
  return n;
}

constexpr std::string_view kKdfLabel = "unicore-secure-channel-v1";
constexpr std::string_view kResumeKdfLabel = "unicore-secure-channel-resume";
constexpr std::string_view kBinderLabel = "unicore-resume-binder";

// The binder key proves possession of the ticket's master secret: only
// the two original handshake parties can derive it, so a stolen or
// replayed ticket without the secret fails the binder check.
Bytes resumption_binder_key(const Bytes& master_secret) {
  crypto::Digest prk{};
  std::copy(master_secret.begin(), master_secret.end(), prk.begin());
  return crypto::hkdf_expand(prk, util::to_bytes(std::string(kBinderLabel)),
                             32);
}

/// Reads the version byte and feature word that follow every hello and
/// reply, and reports whether they name the one protocol spoken here.
bool read_protocol(ByteReader& reader) {
  std::uint8_t version = reader.u8();
  std::uint64_t features = reader.u64();
  return version == kProtocolVersion && features == kChannelFeatures;
}

void write_protocol(ByteWriter& w) {
  w.u8(kProtocolVersion);
  w.u64(kChannelFeatures);
}

util::Error unsupported_protocol() {
  return util::make_error(ErrorCode::kFailedPrecondition,
                          "unsupported protocol version or feature word");
}

void write_chain(ByteWriter& w, const Certificate& leaf) {
  // This reproduction issues user/server certificates directly from the
  // root CA, so chains have length 1; the wire format still carries a
  // count for forward compatibility with intermediates.
  w.varint(1);
  w.blob(leaf.der());
}

/// Reads the chain write_chain wrote, leaf first. A count outside one
/// to eight, or a certificate that does not parse, fails the reader.
std::vector<Certificate> read_chain(ByteReader& reader) {
  std::uint64_t n_certs = reader.count();
  if (n_certs == 0 || n_certs > 8)
    reader.fail(util::make_error(ErrorCode::kInvalidArgument,
                                 "bad certificate chain length"));
  std::vector<Certificate> chain;
  for (std::uint64_t i = 0; i < n_certs && reader.ok(); ++i) {
    auto cert = Certificate::from_der(reader.blob());
    if (cert)
      chain.push_back(std::move(cert.value()));
    else
      reader.fail(cert.error());
  }
  return chain;
}

}  // namespace

std::shared_ptr<SecureChannel> SecureChannel::as_client(
    sim::Engine& engine, util::Rng& rng, std::shared_ptr<Endpoint> endpoint,
    Config config, EstablishedHandler on_established) {
  auto channel = std::shared_ptr<SecureChannel>(
      new SecureChannel(engine, rng, std::move(endpoint), std::move(config),
                        std::move(on_established), /*is_client=*/true));
  channel->start();
  return channel;
}

std::shared_ptr<SecureChannel> SecureChannel::as_server(
    sim::Engine& engine, util::Rng& rng, std::shared_ptr<Endpoint> endpoint,
    Config config, EstablishedHandler on_established) {
  auto channel = std::shared_ptr<SecureChannel>(
      new SecureChannel(engine, rng, std::move(endpoint), std::move(config),
                        std::move(on_established), /*is_client=*/false));
  channel->start();
  return channel;
}

SecureChannel::SecureChannel(sim::Engine& engine, util::Rng& rng,
                             std::shared_ptr<Endpoint> endpoint, Config config,
                             EstablishedHandler on_established, bool is_client)
    : engine_(engine),
      rng_(rng.fork()),
      endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      on_established_(std::move(on_established)),
      is_client_(is_client),
      state_(is_client ? State::kClientAwaitServerHello
                       : State::kServerAwaitClientHello) {}

void SecureChannel::start() {
  // Weak captures: the endpoint outlives the channel (the network owns
  // it), so strong captures here would form an endpoint -> handler ->
  // channel -> endpoint cycle and no channel would ever be destroyed.
  // The channel's owner (session, peer table, client) keeps it alive.
  std::weak_ptr<SecureChannel> weak = shared_from_this();
  endpoint_->set_receiver([weak](Bytes&& wire) {
    if (auto self = weak.lock()) self->handle_wire_message(std::move(wire));
  });
  // Reactor batch delivery: one callback per drained batch instead of one
  // per wire message. Frames still process strictly in order; a failure
  // mid-batch discards the rest, matching per-message semantics (the
  // channel is dead either way).
  endpoint_->set_batch_receiver([weak](std::vector<Bytes>&& frames) {
    auto self = weak.lock();
    if (!self) return;
    for (Bytes& frame : frames) {
      if (self->state_ == State::kFailed) return;
      self->handle_wire_message(std::move(frame));
    }
  });
  endpoint_->set_close_handler([weak] {
    auto self = weak.lock();
    if (!self) return;
    if (self->state_ != State::kEstablished && self->state_ != State::kFailed)
      self->fail(util::make_error(ErrorCode::kUnavailable,
                                  "connection closed during handshake"),
                 /*send_alert=*/false);
    else if (self->on_close_)
      self->on_close_();
  });

  timeout_event_ = engine_.after(config_.handshake_timeout, [weak] {
    auto self = weak.lock();
    if (!self) return;
    self->timeout_event_.reset();
    if (self->state_ != State::kEstablished && self->state_ != State::kFailed) {
      self->endpoint_->count_channel_event(ChannelEvent::kHandshakeTimeout);
      self->fail(util::make_error(ErrorCode::kTimeout,
                                  "handshake timed out"),
                 /*send_alert=*/false);
    }
  });

  if (!is_client_) return;  // the server's DH pair is generated lazily
                            // when a full ClientHello arrives

  // Resume when we hold a fresh ticket for this destination; otherwise
  // (or on HelloRetry) do the full Diffie–Hellman handshake.
  if (config_.session_cache != nullptr) {
    if (const SessionCache::Entry* cached = config_.session_cache->get(
            session_cache_key(), epoch_seconds(engine_.now()));
        cached != nullptr)
      return send_resumed_client_hello(*cached);
  }
  send_full_client_hello();
}

void SecureChannel::send_full_client_hello() {
  dh_ = crypto::dh_generate(rng_);
  client_random_ = rng_.bytes(32);
  ByteWriter hello;
  hello.u8(kClientHello);
  hello.blob(client_random_);
  hello.u64(dh_.public_value);
  write_protocol(hello);
  util::append(transcript_, hello.bytes());
  endpoint_->send(hello.take());
  state_ = State::kClientAwaitServerHello;
}

void SecureChannel::send_resumed_client_hello(
    const SessionCache::Entry& cached) {
  resumption_attempted_ = true;
  master_secret_ = cached.master_secret;
  // The server's certificate was chain-validated by the full handshake
  // this ticket descends from; the server refuses the ticket if its
  // trust material changed since.
  peer_certificate_ = cached.server_certificate;
  client_random_ = rng_.bytes(32);

  ByteWriter hello;
  hello.u8(kClientHelloResumed);
  hello.blob(client_random_);
  hello.blob(cached.ticket);
  write_protocol(hello);
  // Binder: MAC over everything above, keyed from the master secret.
  crypto::Digest binder =
      crypto::hmac_sha256(resumption_binder_key(master_secret_),
                          hello.bytes());
  hello.raw(binder);
  util::append(transcript_, hello.bytes());
  endpoint_->send(hello.take());
  state_ = State::kClientAwaitResumedReply;
}

void SecureChannel::handle_wire_message(Bytes&& wire) {
  if (state_ == State::kFailed) return;
  ByteReader reader{wire};
  auto type = static_cast<MessageType>(reader.u8());
  switch (type) {
    case kClientHello:
      if (state_ != State::kServerAwaitClientHello)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ClientHello"),
                    true);
      // Transcript covers the full message including the type byte.
      util::append(transcript_, wire);
      return handle_client_hello(reader);
    case kServerHello:
      if (state_ != State::kClientAwaitServerHello)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ServerHello"),
                    true);
      return handle_server_hello(reader);
    case kClientCert:
      if (state_ != State::kServerAwaitClientCert)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ClientCert"),
                    true);
      return handle_client_cert(reader);
    case kServerFinished:
      if (state_ != State::kClientAwaitServerFinished)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ServerFinished"),
                    true);
      return handle_server_finished(reader);
    case kClientHelloResumed:
      if (state_ != State::kServerAwaitClientHello)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ClientHelloResumed"),
                    true);
      // Transcript handling is inside the handler: a declined
      // resumption must leave the transcript empty for the full
      // handshake that follows.
      return handle_client_hello_resumed(reader, wire);
    case kServerHelloResumed:
      if (state_ != State::kClientAwaitResumedReply)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected ServerHelloResumed"),
                    true);
      return handle_server_hello_resumed(reader);
    case kHelloRetry:
      if (state_ != State::kClientAwaitResumedReply)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "unexpected HelloRetry"),
                    true);
      return handle_hello_retry();
    case kRecordBatch:
      if (state_ != State::kEstablished)
        return fail(util::make_error(ErrorCode::kFailedPrecondition,
                                     "record before establishment"),
                    true);
      return handle_record_batch(reader, wire);
    case kAlert: {
      // An alert in answer to ClientHelloResumed (the server could not
      // verify the binder, or refused the hello) drops the cached
      // session, so the owner's reconnect retry performs a full
      // handshake.
      if (state_ == State::kClientAwaitResumedReply &&
          config_.session_cache != nullptr)
        config_.session_cache->remove(session_cache_key());
      std::string text = reader.str();
      if (!reader.ok()) return fail(reader.finish().error(), true);
      return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                   "peer alert: " + text),
                  false);
    }
  }
  fail(util::make_error(ErrorCode::kInvalidArgument, "unknown message type"),
       true);
}

util::Status SecureChannel::validate_peer(
    const std::vector<Certificate>& chain) {
  if (config_.trust == nullptr)
    return util::make_error(ErrorCode::kInternal, "no trust store configured");
  crypto::ValidationOptions options;
  options.now = epoch_seconds(engine_.now());
  options.required_usage = config_.required_peer_usage;
  return config_.trust->validate(chain.front(), {chain.begin() + 1, chain.end()},
                                 options);
}

void SecureChannel::handle_client_hello(ByteReader& reader) {
  client_random_ = reader.blob();
  peer_dh_public_ = reader.u64();
  bool supported = read_protocol(reader);
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (!supported) return fail(unsupported_protocol(), true);
  dh_ = crypto::dh_generate(rng_);
  server_random_ = rng_.bytes(32);

  // ServerHello core (everything the signature covers).
  ByteWriter core;
  core.u8(kServerHello);
  core.blob(server_random_);
  core.u64(dh_.public_value);
  write_chain(core, config_.credential.certificate);
  // Echo the version and feature word inside the signed core.
  write_protocol(core);

  util::append(transcript_, core.bytes());
  crypto::Signature sig =
      crypto::sign_message(config_.credential.key, transcript_);

  ByteWriter hello;
  hello.raw(core.bytes());
  hello.u64(sig.value);
  endpoint_->send(hello.take());

  state_ = State::kServerAwaitClientCert;
}

void SecureChannel::handle_server_hello(ByteReader& reader) {
  server_random_ = reader.blob();
  peer_dh_public_ = reader.u64();
  std::vector<Certificate> chain = read_chain(reader);
  bool supported = read_protocol(reader);
  crypto::Signature sig{reader.u64()};
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (auto status = validate_peer(chain); !status.ok())
    return fail(status.error(), true);

  if (!supported) return fail(unsupported_protocol(), true);
  // Reconstruct the signed ServerHello core by re-serialising the parsed
  // fields — the encoding is canonical, so this reproduces the exact
  // bytes the server signed over the running transcript.
  ByteWriter core;
  core.u8(kServerHello);
  core.blob(server_random_);
  core.u64(peer_dh_public_);
  core.varint(chain.size());
  for (const Certificate& c : chain) core.blob(c.der());
  write_protocol(core);

  util::append(transcript_, core.bytes());
  if (!crypto::verify_message(chain.front().subject_key, transcript_, sig))
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "server transcript signature invalid"),
                true);
  peer_certificate_ = std::move(chain.front());

  // ClientCert core.
  ByteWriter cc;
  cc.u8(kClientCert);
  write_chain(cc, config_.credential.certificate);
  util::append(transcript_, cc.bytes());
  crypto::Signature client_sig =
      crypto::sign_message(config_.credential.key, transcript_);

  ByteWriter message;
  message.raw(cc.bytes());
  message.u64(client_sig.value);
  endpoint_->send(message.take());

  derive_keys();
  // Wait for the server's Finished: it both confirms the derived keys
  // and tells us the server accepted our certificate. Without it a
  // client whose certificate is revoked would believe the channel is up.
  state_ = State::kClientAwaitServerFinished;
}

void SecureChannel::handle_server_finished(ByteReader& reader) {
  crypto::Digest verify = reader.fixed<32>();
  // Ticket tail (absent when the server mints no tickets).
  const bool ticketed =
      config_.session_cache != nullptr && reader.remaining() > 0;
  Bytes ticket = ticketed ? reader.blob() : Bytes{};
  std::uint64_t lifetime = ticketed ? reader.u64() : 0;
  if (!reader.ok()) return fail(reader.finish().error(), true);
  // The server MACs the full handshake transcript with its write key —
  // which is our receive key.
  crypto::Digest expected =
      crypto::hmac_sha256(recv_mac_.material, transcript_);
  if (!util::constant_time_equal(expected, verify))
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "ServerFinished verification failed"),
                true);
  if (ticketed) {
    SessionCache::Entry entry;
    entry.ticket = std::move(ticket);
    entry.master_secret = master_secret_;
    entry.server_certificate = peer_certificate_;
    entry.expires_at = epoch_seconds(engine_.now()) +
                       static_cast<std::int64_t>(lifetime);
    config_.session_cache->put(session_cache_key(), std::move(entry));
  }
  succeed();
}

void SecureChannel::handle_client_cert(ByteReader& reader) {
  std::vector<Certificate> chain = read_chain(reader);
  crypto::Signature sig{reader.u64()};
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (auto status = validate_peer(chain); !status.ok())
    return fail(status.error(), true);

  ByteWriter cc;
  cc.u8(kClientCert);
  cc.varint(chain.size());
  for (const Certificate& c : chain) cc.blob(c.der());
  util::append(transcript_, cc.bytes());
  if (!crypto::verify_message(chain.front().subject_key, transcript_, sig))
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "client transcript signature invalid"),
                true);
  peer_certificate_ = std::move(chain.front());

  derive_keys();
  ByteWriter finished;
  finished.u8(kServerFinished);
  crypto::Digest verify = crypto::hmac_sha256(send_mac_.material, transcript_);
  finished.raw(verify);
  // Ticket tail: offer a resumable session. Outside the transcript MAC
  // — a corrupted ticket only costs the client a refused resumption
  // later, never a weaker channel.
  if (config_.ticket_manager != nullptr) {
    ResumptionState session{master_secret_, peer_certificate_};
    finished.blob(config_.ticket_manager->issue(
        session, epoch_seconds(engine_.now())));
    finished.u64(static_cast<std::uint64_t>(config_.ticket_manager->ttl()));
  }
  endpoint_->send(finished.take());
  succeed();
}

void SecureChannel::handle_client_hello_resumed(ByteReader& reader,
                                                const Bytes& wire) {
  Bytes client_random = reader.blob();
  Bytes ticket = reader.blob();
  bool supported = read_protocol(reader);
  crypto::Digest binder = reader.fixed<32>();
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (!supported) return fail(unsupported_protocol(), true);

  auto decline = [this] {
    // Transcript stays empty and the state machine stays put: the
    // client restarts with a full ClientHello on this connection.
    endpoint_->count_channel_event(ChannelEvent::kResumeRefused);
    ByteWriter retry;
    retry.u8(kHelloRetry);
    endpoint_->send(retry.take());
  };

  if (config_.ticket_manager == nullptr) return decline();
  auto session = config_.ticket_manager->redeem(
      ticket, epoch_seconds(engine_.now()));
  if (!session) return decline();

  // The binder covers the message minus its own 32 bytes. A valid
  // ticket with a bad binder is an active attack (replay of a captured
  // ticket without the master secret) — fail hard, don't fall back.
  crypto::Digest expected = crypto::hmac_sha256(
      resumption_binder_key(session.value().master_secret),
      util::ByteView(wire.data(), wire.size() - 32));
  if (!util::constant_time_equal(expected, binder))
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "resumption binder invalid"),
                true);

  client_random_ = std::move(client_random);
  master_secret_ = std::move(session.value().master_secret);
  peer_certificate_ = std::move(session.value().peer_certificate);
  util::append(transcript_, wire);

  server_random_ = rng_.bytes(32);
  derive_resumed_keys();
  resumed_ = true;

  // Rotate the ticket (fresh TTL, same master secret) so a busy client
  // can chain resumptions indefinitely between trust changes.
  ResumptionState rotated{master_secret_, peer_certificate_};
  std::int64_t now = epoch_seconds(engine_.now());

  ByteWriter core;
  core.u8(kServerHelloResumed);
  core.blob(server_random_);
  core.u64(kChannelFeatures);
  core.blob(config_.ticket_manager->issue(rotated, now));
  core.u64(static_cast<std::uint64_t>(config_.ticket_manager->ttl()));
  util::append(transcript_, core.bytes());
  // Key confirmation: MAC the transcript with the freshly derived write
  // key, proving we redeemed the ticket and derived the same schedule.
  crypto::Digest verify =
      crypto::hmac_sha256(send_mac_.material, transcript_);
  ByteWriter message;
  message.raw(core.bytes());
  message.raw(verify);
  endpoint_->send(message.take());

  endpoint_->count_channel_event(ChannelEvent::kResumed);
  succeed();
}

void SecureChannel::handle_server_hello_resumed(ByteReader& reader) {
  server_random_ = reader.blob();
  bool supported = reader.u64() == kChannelFeatures;
  Bytes new_ticket = reader.blob();
  std::uint64_t lifetime = reader.u64();
  crypto::Digest verify = reader.fixed<32>();
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (!supported) return fail(unsupported_protocol(), true);

  // Re-serialise the core (canonical encoding) into the transcript and
  // check the server's key confirmation before trusting anything.
  ByteWriter core;
  core.u8(kServerHelloResumed);
  core.blob(server_random_);
  core.u64(kChannelFeatures);
  core.blob(new_ticket);
  core.u64(lifetime);
  util::append(transcript_, core.bytes());
  derive_resumed_keys();
  crypto::Digest expected =
      crypto::hmac_sha256(recv_mac_.material, transcript_);
  if (!util::constant_time_equal(expected, verify))
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "ServerHelloResumed verification failed"),
                true);
  resumed_ = true;

  if (config_.session_cache != nullptr) {
    SessionCache::Entry entry;
    entry.ticket = std::move(new_ticket);
    entry.master_secret = master_secret_;
    entry.server_certificate = peer_certificate_;
    entry.expires_at = epoch_seconds(engine_.now()) +
                       static_cast<std::int64_t>(lifetime);
    config_.session_cache->put(session_cache_key(), std::move(entry));
  }
  succeed();
}

void SecureChannel::handle_hello_retry() {
  // The server refused our ticket (expired, invalidated, trust change).
  // Drop it and restart with a full handshake on the same connection —
  // callers never see the refusal, only a slightly slower connect.
  if (config_.session_cache != nullptr)
    config_.session_cache->remove(session_cache_key());
  transcript_.clear();
  resumption_attempted_ = false;
  master_secret_.clear();
  peer_certificate_ = Certificate{};
  send_full_client_hello();
}

void SecureChannel::derive_keys() {
  std::uint64_t shared = crypto::dh_shared_secret(dh_, peer_dh_public_);
  ByteWriter ikm;
  ikm.u64(shared);
  Bytes salt = client_random_;
  util::append(salt, server_random_);
  crypto::Digest prk = crypto::hkdf_extract(salt, ikm.bytes());
  // Retain the PRK as this session's master secret: the server seals it
  // into tickets, the client keeps it beside the ticket in its cache.
  master_secret_.assign(prk.begin(), prk.end());
  Bytes material = crypto::hkdf_expand(
      prk, util::to_bytes(std::string(kKdfLabel)), 128);

  auto slice = [&material](std::size_t offset) {
    return crypto::SymmetricKey{
        Bytes(material.begin() + static_cast<std::ptrdiff_t>(offset),
              material.begin() + static_cast<std::ptrdiff_t>(offset + 32))};
  };
  crypto::SymmetricKey client_enc = slice(0);
  crypto::SymmetricKey client_mac = slice(32);
  crypto::SymmetricKey server_enc = slice(64);
  crypto::SymmetricKey server_mac = slice(96);

  if (is_client_) {
    send_enc_ = client_enc;
    send_mac_ = client_mac;
    recv_enc_ = server_enc;
    recv_mac_ = server_mac;
  } else {
    send_enc_ = server_enc;
    send_mac_ = server_mac;
    recv_enc_ = client_enc;
    recv_mac_ = client_mac;
  }
}

void SecureChannel::derive_resumed_keys() {
  // Same schedule shape as derive_keys(), but the input keying material
  // is the cached master secret instead of a fresh DH secret — zero
  // public-key operations. Fresh randoms from both sides ensure the
  // per-direction keys (and thus record nonces) never repeat across
  // resumptions of the same ticket lineage.
  Bytes salt = client_random_;
  util::append(salt, server_random_);
  crypto::Digest prk = crypto::hkdf_extract(salt, master_secret_);
  Bytes material = crypto::hkdf_expand(
      prk, util::to_bytes(std::string(kResumeKdfLabel)), 128);

  auto slice = [&material](std::size_t offset) {
    return crypto::SymmetricKey{
        Bytes(material.begin() + static_cast<std::ptrdiff_t>(offset),
              material.begin() + static_cast<std::ptrdiff_t>(offset + 32))};
  };
  crypto::SymmetricKey client_enc = slice(0);
  crypto::SymmetricKey client_mac = slice(32);
  crypto::SymmetricKey server_enc = slice(64);
  crypto::SymmetricKey server_mac = slice(96);

  if (is_client_) {
    send_enc_ = client_enc;
    send_mac_ = client_mac;
    recv_enc_ = server_enc;
    recv_mac_ = server_mac;
  } else {
    send_enc_ = server_enc;
    send_mac_ = server_mac;
    recv_enc_ = client_enc;
    recv_mac_ = client_mac;
  }
}

std::string SecureChannel::session_cache_key() const {
  return config_.session_key.empty() ? endpoint_->remote_host()
                                     : config_.session_key;
}

void SecureChannel::succeed() {
  state_ = State::kEstablished;
  endpoint_->count_channel_event(ChannelEvent::kHandshakeOk);
  if (timeout_event_) {
    engine_.cancel(*timeout_event_);
    timeout_event_.reset();
  }
  if (on_established_) {
    auto handler = std::move(on_established_);
    on_established_ = nullptr;
    handler(Status::ok_status());
  }
}

void SecureChannel::fail(Error error, bool send_alert) {
  if (state_ == State::kFailed) return;
  bool was_established = state_ == State::kEstablished;
  // Queued application records depart ahead of the alert/close so the
  // peer never sees teardown overtake data it was meant to receive.
  flush_send_queue();
  state_ = State::kFailed;
  if (!was_established) {
    endpoint_->count_channel_event(ChannelEvent::kHandshakeFail);
  }
  if (timeout_event_) {
    engine_.cancel(*timeout_event_);
    timeout_event_.reset();
  }
  if (send_alert && endpoint_->is_open()) {
    ByteWriter alert;
    alert.u8(kAlert);
    alert.str(error.message);
    endpoint_->send(alert.take());
  }
  endpoint_->close();
  // Break the channel <-> endpoint reference cycle. Deferred because this
  // may run inside the endpoint's receiver callback.
  engine_.after(0, [endpoint = endpoint_] {
    endpoint->set_receiver(nullptr);
    endpoint->set_batch_receiver(nullptr);
    endpoint->set_close_handler(nullptr);
  });
  UNICORE_DEBUG("secure_channel") << "handshake/channel failure: "
                                  << error.to_string();
  if (!was_established && on_established_) {
    auto handler = std::move(on_established_);
    on_established_ = nullptr;
    handler(Status(std::move(error)));
  } else if (was_established && on_close_) {
    on_close_();
  }
}

void SecureChannel::send(Bytes plaintext) {
  if (state_ != State::kEstablished) return;
  // Queue for the end-of-instant flush: every message sent within one
  // simulation instant coalesces into as few kRecordBatch frames as the
  // frame cap allows. Sequence numbers are assigned at flush time so
  // queued records stay contiguous with records of other frames.
  send_queue_.push_back(std::move(plaintext));
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    std::weak_ptr<SecureChannel> weak = shared_from_this();
    engine_.after(0, [weak] {
      if (auto self = weak.lock()) self->flush_send_queue();
    });
  }
}

void SecureChannel::flush_send_queue() {
  flush_scheduled_ = false;
  if (send_queue_.empty() || state_ != State::kEstablished) return;
  std::vector<Bytes> queue = std::move(send_queue_);
  send_queue_.clear();
  if (!endpoint_->is_open()) return;

  // Stage 1 — slice: one record per message, except messages above the
  // fragment limit which split into first/middle/final fragment records.
  // Each record is a view into the queued buffer it came from; sealing
  // encrypts those bytes in place, so nothing is copied until the final
  // frame assembly.
  struct PendingRecord {
    crypto::MutableByteView data;
    std::uint64_t seq = 0;
    std::uint8_t flags = kComplete;
    std::uint64_t total = 0;  // announced size, first fragments only
    crypto::Digest tag{};
  };
  std::vector<PendingRecord> records;
  records.reserve(queue.size());
  for (Bytes& message : queue) {
    if (message.size() <= kFragmentLimit) {
      PendingRecord r;
      r.data = crypto::MutableByteView(message.data(), message.size());
      r.seq = send_seq_++;
      records.push_back(r);
      continue;
    }
    std::size_t offset = 0;
    while (offset < message.size()) {
      std::size_t take = std::min(kFragmentLimit, message.size() - offset);
      PendingRecord r;
      r.data = crypto::MutableByteView(message.data() + offset, take);
      r.seq = send_seq_++;
      r.flags = offset == 0                        ? kFirst
                : offset + take == message.size()  ? kFinal
                                                   : kMiddle;
      r.total = message.size();
      records.push_back(r);
      offset += take;
    }
  }

  // Stage 2 — seal each record in place under its own sequence number.
  const std::uint8_t direction = is_client_ ? 0 : 1;
  for (PendingRecord& r : records) {
    std::uint8_t aad[18];
    std::size_t n = encode_batch_aad(aad, direction, r.seq, r.flags, r.total);
    r.tag = crypto::seal_inplace(send_enc_, send_mac_, r.seq, r.data,
                                 util::ByteView(aad, n));
  }

  // Stage 3 — frame assembly: greedy fill up to the frame payload cap.
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t first = i;
    std::size_t payload = 0;
    do {
      payload += records[i].data.size();
      ++i;
    } while (i < records.size() &&
             payload + records[i].data.size() <= kMaxFrameBytes &&
             i - first < kMaxRecordsPerFrame);

    ByteWriter frame;
    frame.reserve(1 + 8 + 10 + payload + (i - first) * 48);
    frame.u8(kRecordBatch);
    frame.u64(records[first].seq);
    frame.varint(i - first);
    for (std::size_t j = first; j < i; ++j) {
      const PendingRecord& r = records[j];
      frame.varint(r.data.size());
      frame.u8(r.flags);
      if (r.flags == kFirst) frame.varint(r.total);
      frame.raw(util::ByteView(r.data.data(), r.data.size()));
      frame.raw(r.tag);
    }
    ++batch_frames_sent_;
    endpoint_->send(frame.take());
  }
}

void SecureChannel::handle_record_batch(ByteReader& reader, Bytes& wire) {
  std::uint64_t first_seq = reader.u64();
  std::uint64_t count = reader.count();
  if (count == 0 || count > kMaxRecordsPerFrame)
    reader.fail(util::make_error(ErrorCode::kInvalidArgument,
                                 "bad batch record count"));

  // Stage 1 — parse: locate each record's ciphertext slice inside the
  // wire buffer without copying it out.
  struct WireRecord {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::uint8_t flags = kComplete;
    std::uint64_t total = 0;
    crypto::Digest tag{};
  };
  std::vector<WireRecord> records;
  records.reserve(reader.ok() ? count : 0);
  for (std::uint64_t k = 0; k < count && reader.ok(); ++k) {
    WireRecord r;
    r.size = reader.varint();
    r.flags = reader.u8();
    if (r.flags == kFirst) r.total = reader.varint();
    r.offset = reader.position();
    reader.skip(r.size);
    r.tag = reader.fixed<32>();
    records.push_back(r);
  }
  if (!reader.ok()) return fail(reader.finish().error(), true);
  if (first_seq != recv_seq_)
    return fail(util::make_error(ErrorCode::kAuthenticationFailed,
                                 "record out of sequence"),
                true);

  // Stage 2 — verify + decrypt every record in place; any single failure
  // kills the channel.
  const std::uint8_t direction = is_client_ ? 1 : 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WireRecord& r = records[i];
    std::uint8_t aad[18];
    std::size_t n =
        encode_batch_aad(aad, direction, first_seq + i, r.flags, r.total);
    if (auto status = crypto::open_inplace(
            recv_enc_, recv_mac_, first_seq + i,
            crypto::MutableByteView(wire.data() + r.offset, r.size), r.tag,
            util::ByteView(aad, n));
        !status.ok())
      return fail(status.error(), true);
  }
  recv_seq_ += count;
  ++batch_frames_received_;

  // Stage 3 — reassemble fragments into the frame's plaintexts, in record
  // order. Nothing reaches the application unless the whole frame does.
  std::vector<Bytes> plaintexts;
  for (const WireRecord& r : records) {
    auto begin = wire.begin() + static_cast<std::ptrdiff_t>(r.offset);
    auto end = begin + static_cast<std::ptrdiff_t>(r.size);
    switch (r.flags) {
      case kComplete:
        if (reassembly_expected_ != 0)
          return fail(util::make_error(
                          ErrorCode::kInvalidArgument,
                          "complete record inside a fragmented message"),
                      true);
        plaintexts.emplace_back(begin, end);
        break;
      case kFirst:
        if (reassembly_expected_ != 0)
          return fail(util::make_error(ErrorCode::kInvalidArgument,
                                       "nested fragmented message"),
                      true);
        if (r.total < r.size || r.total > kMaxReassemblyBytes)
          return fail(util::make_error(ErrorCode::kInvalidArgument,
                                       "bad fragment total"),
                      true);
        reassembly_.clear();
        reassembly_.reserve(r.total);
        reassembly_.assign(begin, end);
        reassembly_expected_ = r.total;
        break;
      case kMiddle:
      case kFinal:
        if (reassembly_expected_ == 0)
          return fail(util::make_error(ErrorCode::kInvalidArgument,
                                       "fragment without a first fragment"),
                      true);
        if (reassembly_.size() + r.size > reassembly_expected_)
          return fail(util::make_error(ErrorCode::kInvalidArgument,
                                       "fragmented message overflows total"),
                      true);
        reassembly_.insert(reassembly_.end(), begin, end);
        if (r.flags == kFinal) {
          if (reassembly_.size() != reassembly_expected_)
            return fail(util::make_error(ErrorCode::kInvalidArgument,
                                         "fragmented message short of total"),
                        true);
          reassembly_expected_ = 0;
          plaintexts.push_back(std::move(reassembly_));
          reassembly_ = Bytes();
        }
        break;
      default:
        return fail(util::make_error(ErrorCode::kInvalidArgument,
                                     "invalid record flags"),
                    true);
    }
  }

  // Stage 4 — deliver in record order. A handler may close or fail the
  // channel; delivery stops there.
  for (Bytes& plaintext : plaintexts) {
    if (state_ != State::kEstablished) break;
    if (on_message_) on_message_(std::move(plaintext));
  }
}

void SecureChannel::set_receiver(MessageHandler handler) {
  on_message_ = std::move(handler);
}

void SecureChannel::set_close_handler(std::function<void()> handler) {
  on_close_ = std::move(handler);
}

void SecureChannel::close() {
  if (state_ == State::kFailed) return;
  // Flush before closing: send() followed by close() in the same instant
  // must put the queued records on the wire ahead of the close notice.
  flush_send_queue();
  state_ = State::kFailed;
  if (timeout_event_) {
    engine_.cancel(*timeout_event_);
    timeout_event_.reset();
  }
  endpoint_->close();
  engine_.after(0, [endpoint = endpoint_] {
    endpoint->set_receiver(nullptr);
    endpoint->set_batch_receiver(nullptr);
    endpoint->set_close_handler(nullptr);
  });
}

}  // namespace unicore::net
