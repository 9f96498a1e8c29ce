#include "server/xfer_transport.h"

#include <utility>

namespace unicore::server {

using util::Bytes;
using util::Error;
using util::Result;

RequestKind xfer_request_kind(xfer::Op op) {
  switch (op) {
    case xfer::Op::kOpen: return RequestKind::kXferBundleOpen;
    case xfer::Op::kChunk: return RequestKind::kXferChunk;
    case xfer::Op::kClose: return RequestKind::kXferBundleClose;
  }
  return RequestKind::kXferChunk;
}

std::shared_ptr<XferRails> XferRails::create(sim::Engine& engine,
                                             net::Network& network,
                                             util::Rng& rng, Config config) {
  auto rails = std::shared_ptr<XferRails>(
      new XferRails(engine, network, rng, std::move(config)));
  std::weak_ptr<XferRails> weak = rails;
  rails->pool_->set_receiver([weak](std::size_t, Bytes&& wire) {
    if (auto self = weak.lock()) self->replies_.resolve(wire);
  });
  rails->pool_->set_slot_failure([weak](std::size_t index,
                                        const Error& error) {
    if (auto self = weak.lock()) self->replies_.fail(index, error);
  });
  return rails;
}

XferRails::XferRails(sim::Engine& engine, net::Network& network,
                     util::Rng& rng, Config config)
    : config_(std::move(config)),
      replies_(engine,
               [] { return std::string("transfer request timed out"); }) {
  net::ChannelPool::Config pool_config;
  pool_config.local_host = config_.local_host;
  pool_config.remote = config_.remote;
  pool_config.size = config_.streams;
  pool_config.channel.credential = config_.credential;
  pool_config.channel.trust = config_.trust;
  pool_config.channel.required_peer_usage = config_.required_peer_usage;
  pool_config.channel.session_cache = config_.session_cache;
  pool_ = net::ChannelPool::create(engine, network, rng,
                                   std::move(pool_config));
}

void XferRails::call(std::size_t stream, xfer::Op op, Bytes body,
                     std::function<void(Result<Bytes>)> done) {
  stream %= pool_->size();
  std::uint64_t request_id =
      replies_.add(config_.request_timeout, stream, std::move(done));
  // A connect failure is synchronous: the pool's slot-failure callback
  // has already failed the request in that case.
  pool_->send_on(stream,
                 make_request(xfer_request_kind(op), request_id, body));
}

}  // namespace unicore::server
