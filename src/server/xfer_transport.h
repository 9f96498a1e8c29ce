// XferRails — the server-layer binding of xfer::ChunkTransport: N
// parallel mutually-authenticated secure channels ("rails") to one peer
// gateway, each carrying kXferBundleOpen/kXferChunk/kXferBundleClose
// envelopes.
//
// The simulated network serialises bandwidth per directed host pair,
// so the rails share one link between the two gateways: they keep it
// busy with a window of chunks each, rather than multiply its
// capacity (DESIGN §6.1).
//
// The rails draw from a net::ChannelPool: slots connect lazily on
// first use, reconnect after failure, and — when a SessionCache is
// wired — resume from the peer's session ticket instead of repeating
// the full public-key handshake on every rail. One ReplyTable correlates
// the replies of every rail; each in-flight request carries its own
// timeout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/channel_pool.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "server/protocol.h"
#include "server/reply_table.h"
#include "util/result.h"
#include "xfer/transfer.h"

namespace unicore::server {

class XferRails : public xfer::ChunkTransport {
 public:
  struct Config {
    std::string local_host;  // host the rails connect from
    net::Address remote;     // peer gateway (or own gateway for clients)
    std::size_t streams = 4;
    crypto::Credential credential;   // server or user credential
    const crypto::TrustStore* trust = nullptr;
    std::uint8_t required_peer_usage = crypto::kUsageServerAuth;
    sim::Time request_timeout = sim::sec(60);
    /// Session-resumption cache shared with the owner's other channels
    /// toward the same peer; nullptr disables resumption on the rails.
    net::SessionCache* session_cache = nullptr;
  };

  static std::shared_ptr<XferRails> create(sim::Engine& engine,
                                           net::Network& network,
                                           util::Rng& rng, Config config);

  // xfer::ChunkTransport
  std::size_t streams() const override { return pool_->size(); }
  void call(std::size_t stream, xfer::Op op, util::Bytes body,
            std::function<void(util::Result<util::Bytes>)> done) override;

  /// Handshakes started over the rails' lifetime (> streams() after a
  /// reconnect).
  std::uint64_t reconnects() const { return pool_->connects(); }
  /// How many of those handshakes were session resumptions.
  std::uint64_t resumptions() const { return pool_->resumptions(); }

 private:
  XferRails(sim::Engine& engine, net::Network& network, util::Rng& rng,
            Config config);

  Config config_;
  std::shared_ptr<net::ChannelPool> pool_;
  ReplyTable replies_;
};

/// RequestKind carrying each transfer operation.
RequestKind xfer_request_kind(xfer::Op op);

}  // namespace unicore::server
