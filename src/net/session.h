// Session resumption state for the SecureChannel (see docs/SECURITY.md).
//
// After a full handshake the server seals a *session ticket* — an
// encrypted, MAC'd capsule holding the channel's master secret, the
// peer's validated certificate, and the fixed feature word — and
// hands it to the client. A later connection presents the ticket and
// both sides derive fresh per-direction keys from the cached master
// secret plus new randoms: one round trip, no Diffie–Hellman, no chain
// re-validation. No check is weakened: tickets expire after a TTL, are
// bound to the trust-store generation they were minted under (any root
// or CRL change kills every outstanding ticket), and can be revoked
// wholesale with invalidate_all().
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "crypto/cipher.h"
#include "crypto/x509.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace unicore::net {

/// What a redeemed ticket restores: enough to resume a channel without
/// public-key operations.
struct ResumptionState {
  util::Bytes master_secret;  // 32 bytes — the full handshake's PRK
  crypto::Certificate peer_certificate;
};

/// Server-side ticket mint. Tickets are opaque to clients: sealed under
/// the manager's session-ticket encryption keys (STEK) with the ticket
/// id as nonce, so a client — or an eavesdropper — can neither read nor
/// forge one.
class SessionTicketManager {
 public:
  explicit SessionTicketManager(util::Rng& rng);

  /// Binds tickets to `trust`'s generation: adding a root or CRL there
  /// refuses every ticket minted before the change.
  void attach_trust(const crypto::TrustStore* trust) { trust_ = trust; }

  void set_ttl(std::int64_t seconds) { ttl_seconds_ = seconds; }
  std::int64_t ttl() const { return ttl_seconds_; }

  /// Seals `state` into a ticket wire blob stamped with `now`, the STEK
  /// epoch, and the current trust-store generation.
  util::Bytes issue(const ResumptionState& state, std::int64_t now);

  /// Authenticates and decrypts a ticket. Refuses (kPermissionDenied /
  /// kAuthenticationFailed) expired tickets, tickets from an older STEK
  /// epoch, tickets minted under an older trust-store generation, and
  /// tickets whose certificate is outside its validity window.
  util::Result<ResumptionState> redeem(util::ByteView ticket,
                                       std::int64_t now);

  /// Explicit revocation: every outstanding ticket is refused afterwards.
  void invalidate_all() { ++epoch_; }

  std::uint64_t issued() const { return issued_; }
  std::uint64_t redeemed() const { return redeemed_; }
  std::uint64_t refused() const { return refused_; }

 private:
  crypto::SymmetricKey stek_enc_;
  crypto::SymmetricKey stek_mac_;
  const crypto::TrustStore* trust_ = nullptr;
  std::int64_t ttl_seconds_ = 3600;
  std::uint64_t epoch_ = 1;
  std::uint64_t next_ticket_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t redeemed_ = 0;
  std::uint64_t refused_ = 0;
};

/// Client-side cache of resumable sessions, keyed by destination
/// ("host:port"). Shared by every channel a component opens toward the
/// same peer — the client's main channel and its transfer rails, or a
/// server's whole peer pool — so any one full handshake warms them all.
class SessionCache {
 public:
  struct Entry {
    util::Bytes ticket;         // opaque server capsule
    util::Bytes master_secret;  // retained locally, never on the wire
    crypto::Certificate server_certificate;
    std::int64_t expires_at = 0;  // epoch seconds (server lifetime hint)
  };

  void put(const std::string& key, Entry entry) {
    entries_[key] = std::move(entry);
  }
  /// nullptr when absent or past the server's lifetime hint (expired
  /// entries are dropped — the server would refuse them anyway).
  const Entry* get(const std::string& key, std::int64_t now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    if (now >= it->second.expires_at) {
      entries_.erase(it);
      return nullptr;
    }
    return &it->second;
  }
  void remove(const std::string& key) { entries_.erase(key); }
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  static std::string key_for(const std::string& host, std::uint16_t port) {
    return host + ":" + std::to_string(port);
  }

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace unicore::net
