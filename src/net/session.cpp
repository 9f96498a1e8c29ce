#include "net/session.h"

#include "net/secure_channel.h"

namespace unicore::net {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::ErrorCode;
using util::Result;

SessionTicketManager::SessionTicketManager(util::Rng& rng)
    : stek_enc_{rng.bytes(32)}, stek_mac_{rng.bytes(32)} {}

Bytes SessionTicketManager::issue(const ResumptionState& state,
                                  std::int64_t now) {
  ByteWriter plain;
  plain.blob(state.master_secret);
  plain.blob(state.peer_certificate.der());
  plain.u64(kChannelFeatures);
  plain.i64(now);
  plain.u64(epoch_);
  plain.u64(trust_ != nullptr ? trust_->generation() : 0);

  std::uint64_t ticket_id = next_ticket_id_++;
  Bytes sealed = plain.take();
  crypto::Digest tag =
      crypto::seal_inplace(stek_enc_, stek_mac_, ticket_id, sealed, {});

  ByteWriter wire;
  wire.u64(ticket_id);
  wire.blob(sealed);
  wire.raw(tag);
  ++issued_;
  return wire.take();
}

Result<ResumptionState> SessionTicketManager::redeem(util::ByteView ticket,
                                                     std::int64_t now) {
  auto refuse = [this](ErrorCode code, const char* why) -> util::Error {
    ++refused_;
    return util::make_error(code, std::string("session ticket refused: ") +
                                      why);
  };
  ByteReader reader{ticket};
  std::uint64_t ticket_id = reader.u64();
  Bytes sealed = reader.blob();
  crypto::Digest tag = reader.fixed<32>();
  if (!reader.finish().ok())
    return refuse(ErrorCode::kInvalidArgument, "malformed");
  if (auto status = crypto::open_inplace(stek_enc_, stek_mac_, ticket_id,
                                         sealed, tag, {});
      !status.ok())
    return refuse(ErrorCode::kAuthenticationFailed, "bad MAC");

  ByteReader plain{sealed};
  ResumptionState state;
  state.master_secret = plain.blob();
  Bytes cert_der = plain.blob();
  plain.u64();  // the fixed feature word
  std::int64_t issued_at = plain.i64();
  std::uint64_t epoch = plain.u64();
  std::uint64_t trust_generation = plain.u64();
  if (!plain.ok()) return refuse(ErrorCode::kInvalidArgument, "malformed");

  if (epoch != epoch_)
    return refuse(ErrorCode::kPermissionDenied, "invalidated");
  if (now >= issued_at + ttl_seconds_)
    return refuse(ErrorCode::kPermissionDenied, "expired");
  if (trust_ != nullptr && trust_generation != trust_->generation())
    return refuse(ErrorCode::kPermissionDenied,
                  "trust store changed since issuance");

  auto cert = crypto::Certificate::from_der(cert_der);
  if (!cert) return refuse(ErrorCode::kAuthenticationFailed, "bad cert");
  if (!cert.value().valid_at(now))
    return refuse(ErrorCode::kPermissionDenied,
                  "certificate outside validity window");
  state.peer_certificate = std::move(cert.value());
  ++redeemed_;
  return state;
}

}  // namespace unicore::net
