#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "ajo/codec.h"
#include "batch/dialect.h"
#include "batch/subsystem.h"
#include "bench.h"
#include "crypto/sha256.h"
#include "gateway/gateway.h"
#include "gateway/session_broker.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "net/session.h"
#include "sim/engine.h"
#include "store/chunk_store.h"
#include "util/rng.h"
#include "xfer/wire.h"

namespace gridbench::replay {

using namespace unicore;

namespace {

/// Repeats `pass` until at least `budget_s` of wall time has gone by and
/// returns the mean seconds per pass.
template <typename Fn>
double time_per_pass(Fn&& pass, double budget_s = 0.03) {
  int passes = 0;
  double start = wall_now();
  double elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = wall_now() - start;
  } while (elapsed < budget_s);
  return elapsed / passes;
}

volatile std::uint64_t sink = 0;

/// A replay whose calls fail measures nothing useful; stop the run.
[[noreturn]] void replay_failed(const char* what) {
  std::fprintf(stderr, "gridbench: replay failed: %s\n", what);
  std::exit(3);
}

}  // namespace

double sim_self_ns_per_event(std::uint64_t fired, std::uint64_t cancels) {
  constexpr std::uint64_t kCap = 200'000;
  double scale = fired > kCap ? static_cast<double>(kCap) / static_cast<double>(fired) : 1.0;
  auto events = static_cast<std::uint64_t>(static_cast<double>(fired) * scale);
  auto cancelled = static_cast<std::uint64_t>(static_cast<double>(cancels) * scale);
  if (events == 0) return 0;
  util::Rng rng(17);
  std::vector<sim::Time> delays(events);
  for (auto& d : delays) d = static_cast<sim::Time>(rng.below(1'000'000));
  double per_pass = time_per_pass([&] {
    sim::Engine engine;
    std::uint64_t cancel_every = cancelled == 0 ? 0 : std::max<std::uint64_t>(1, events / cancelled);
    for (std::uint64_t i = 0; i < events; ++i) {
      engine.after(delays[i], [] {});
      if (cancel_every != 0 && i % cancel_every == 0)
        engine.cancel(engine.after(delays[i] + 1, [] {}));
    }
    engine.run();
  });
  return per_pass * 1e9 / static_cast<double>(events);
}

namespace {

/// A private network with one listening server channel and a client
/// credential, for handshake and record replays.
struct ChannelPair {
  sim::Engine engine;
  util::Rng rng{41};
  net::Network network{engine, util::Rng(42)};
  crypto::TrustStore trust;
  crypto::Credential server_credential;
  crypto::Credential user;
  net::SessionTicketManager tickets{rng};
  net::SessionCache cache;
  std::shared_ptr<net::SecureChannel> server;

  ChannelPair(grid::Grid& grid, const crypto::Credential& client_user)
      : trust(grid.make_trust_store()), user(client_user) {
    // Valid from the epoch: the private engine's clock starts there.
    server_credential = grid.ca().issue_credential(
        {"DE", "Replay", "", "replay-server", ""}, rng, net::kSimulationEpoch,
        86'400 * 365, crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
    tickets.attach_trust(&trust);
    net::LinkProfile lan;
    lan.latency = sim::usec(200);
    lan.bandwidth_bytes_per_sec = 1e9;
    network.set_default_link(lan);
    (void)network.listen({"server", 443}, [this](std::shared_ptr<net::Endpoint> e) {
      net::SecureChannel::Config config;
      config.credential = server_credential;
      config.trust = &trust;
      config.required_peer_usage = crypto::kUsageClientAuth;
      config.ticket_manager = &tickets;
      server = net::SecureChannel::as_server(engine, rng, std::move(e), config,
                                             [](util::Status) {});
    });
  }

  std::shared_ptr<net::SecureChannel> connect() {
    net::SecureChannel::Config config;
    config.credential = user;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    config.session_cache = &cache;
    auto endpoint = network.connect("client", {"server", 443}).value();
    bool ok = false;
    auto channel = net::SecureChannel::as_client(
        engine, rng, std::move(endpoint), config,
        [&ok](util::Status status) { ok = status.ok(); });
    engine.run();
    if (!ok) replay_failed("secure channel handshake");
    return channel;
  }
};

}  // namespace

HandshakeCost handshakes(grid::Grid& grid, const crypto::Credential& user) {
  ChannelPair pair(grid, user);
  HandshakeCost cost;
  cost.full_us = time_per_pass([&] {
                   pair.cache.clear();
                   auto channel = pair.connect();
                   channel->close();
                   pair.engine.run();
                 }) *
                 1e6;
  (void)pair.connect();  // leaves a ticket in the cache
  cost.resumed_us = time_per_pass([&] {
                      auto channel = pair.connect();
                      channel->close();
                      pair.engine.run();
                    }) *
                    1e6;
  return cost;
}

double seal_open_ns_per_byte(grid::Grid& grid, const crypto::Credential& user,
                             const std::vector<std::size_t>& sizes) {
  if (sizes.empty()) return 0;
  ChannelPair pair(grid, user);
  auto client = pair.connect();
  std::uint64_t received = 0;
  pair.server->set_receiver([&received](util::Bytes&& message) {
    received += message.size();
  });
  util::Rng rng(5);
  std::vector<util::Bytes> messages;
  double bytes = 0;
  for (std::size_t size : sizes) {
    messages.push_back(rng.bytes(std::max<std::size_t>(size, 1)));
    bytes += static_cast<double>(messages.back().size());
  }
  std::uint64_t passes = 0;
  double per_pass = time_per_pass([&] {
    for (const auto& message : messages) {
      client->send(message);
      pair.engine.run();
    }
    ++passes;
  });
  if (received != passes * static_cast<std::uint64_t>(bytes))
    replay_failed("secure channel records");
  return per_pass * 1e9 / bytes;
}

double cert_validate_us(const crypto::TrustStore& trust,
                        std::span<const crypto::Credential> users,
                        std::int64_t now) {
  if (users.empty()) return 0;
  crypto::ValidationOptions options;
  options.now = now;
  options.required_usage = crypto::kUsageClientAuth;
  double per_pass = time_per_pass([&] {
    for (const auto& user : users)
      if (!trust.validate(user.certificate, {}, options).ok())
        replay_failed("certificate validation");
  });
  return per_pass * 1e6 / static_cast<double>(users.size());
}

double tbs_der_us(std::span<const crypto::Credential> users) {
  if (users.empty()) return 0;
  double per_pass = time_per_pass([&] {
    for (const auto& user : users) sink = sink + user.certificate.tbs_der().size();
  });
  return per_pass * 1e6 / static_cast<double>(users.size());
}

double sha256_ns_per_byte(const std::vector<std::size_t>& sizes) {
  if (sizes.empty()) return 0;
  util::Rng rng(9);
  std::vector<util::Bytes> buffers;
  double bytes = 0;
  for (std::size_t size : sizes) {
    buffers.push_back(rng.bytes(std::max<std::size_t>(size, 1)));
    bytes += static_cast<double>(buffers.back().size());
  }
  double per_pass = time_per_pass([&] {
    for (const auto& buffer : buffers) sink = sink + crypto::sha256(buffer)[0];
  });
  return per_pass * 1e9 / bytes;
}

CodecCost ajo_codec(const std::vector<ajo::AbstractJobObject>& jobs) {
  CodecCost cost;
  if (jobs.empty()) return cost;
  std::vector<util::Bytes> wires;
  for (const auto& job : jobs) wires.push_back(ajo::encode_action(job));
  double n = static_cast<double>(jobs.size());
  cost.encode_us = time_per_pass([&] {
                     for (const auto& job : jobs)
                       sink = sink + ajo::encode_action(job).size();
                   }) *
                   1e6 / n;
  cost.decode_us = time_per_pass([&] {
                     for (const auto& wire : wires)
                       if (!ajo::decode_action(util::ByteView(wire)).ok())
                         replay_failed("AJO decode");
                   }) *
                   1e6 / n;
  return cost;
}

AuthCost gateway_auth(const grid::Grid& grid,
                      std::span<const crypto::Credential> users,
                      std::int64_t now) {
  AuthCost cost;
  if (users.empty()) return cost;
  gateway::UserDatabase uudb;
  for (std::size_t i = 0; i < users.size(); ++i) {
    gateway::UserEntry entry;
    entry.login = "replay" + std::to_string(i);
    entry.account_groups = {"project-a"};
    uudb.add_mapping(users[i].certificate.subject, std::move(entry));
  }
  gateway::Gateway gateway("Replay", grid.make_trust_store(), std::move(uudb));
  double n = static_cast<double>(users.size());
  cost.miss_us = time_per_pass([&] {
                   gateway.invalidate_auth_cache();
                   for (const auto& user : users)
                     if (!gateway.authenticate_user(user.certificate, now).ok())
                       replay_failed("gateway authentication");
                 }) *
                 1e6 / n;
  cost.hit_us = time_per_pass([&] {
                  for (const auto& user : users)
                    if (!gateway.authenticate_user(user.certificate, now).ok())
                       replay_failed("gateway authentication");
                }) *
                1e6 / n;
  util::Rng rng(3);
  gateway::SessionBroker broker(gateway, rng);
  std::vector<util::Bytes> tokens;
  for (const auto& user : users) {
    auto grant = broker.open(user.certificate, now);
    if (grant) tokens.push_back(grant.value().token);
  }
  if (!tokens.empty())
    cost.token_us = time_per_pass([&] {
                      for (const auto& token : tokens)
                        if (!broker.authenticate(token, now).ok())
                          replay_failed("session token validation");
                    }) *
                    1e6 / static_cast<double>(tokens.size());
  return cost;
}

double batch_sched_us_per_job(const batch::SystemConfig& system,
                              std::vector<BatchArrival> stream) {
  if (stream.empty()) return 0;
  std::stable_sort(stream.begin(), stream.end(),
                   [](const BatchArrival& a, const BatchArrival& b) {
                     return a.at < b.at;
                   });
  std::vector<std::string> scripts;
  for (const BatchArrival& arrival : stream) {
    batch::BatchRequest request;
    request.queue = system.queues.front().name;
    request.processors = std::min(arrival.processors, system.nodes);
    request.wallclock_seconds = std::min<std::int64_t>(
        system.queues.front().max_wallclock_seconds,
        static_cast<std::int64_t>(arrival.runtime_s * 1.25) + 60);
    request.memory_mb = 64;
    scripts.push_back(batch::render_directives(system.architecture, request) +
                      "./replay\n");
  }
  sim::Time origin = stream.front().at;
  std::uint64_t rejected = 0;
  double per_pass = time_per_pass(
      [&] {
        sim::Engine engine;
        batch::BatchSubsystem subsystem(engine, util::Rng(1), system);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          engine.at(stream[i].at - origin, [&, i] {
            batch::ExecutionSpec spec;
            spec.nominal_seconds =
                stream[i].runtime_s * system.gflops_per_processor;
            if (!subsystem.submit(scripts[i], "replay", std::move(spec),
                                  [](batch::BatchJobId, const batch::BatchResult&) {}))
              ++rejected;
          });
        }
        engine.run();
      },
      0.05);
  if (rejected != 0) replay_failed("batch submissions rejected");
  return per_pass * 1e6 / static_cast<double>(stream.size());
}

double chunk_codec_ns_per_byte(
    const std::vector<std::shared_ptr<const uspace::FileBlob>>& files) {
  if (files.empty()) return 0;
  double bytes = 0;
  for (const auto& file : files) bytes += static_cast<double>(file->size());
  double per_pass = time_per_pass([&] {
    for (const auto& file : files) {
      std::uint64_t chunks = xfer::chunk_count(file->size(), xfer::kDefaultChunkBytes);
      for (std::uint64_t index = 0; index < chunks; ++index) {
        xfer::Chunk chunk = xfer::make_chunk(*file, index, xfer::kDefaultChunkBytes);
        util::ByteWriter writer;
        chunk.encode(writer);
        util::Bytes wire = writer.take();
        util::ByteReader reader{wire};
        sink = sink + xfer::Chunk::decode(reader).length;
      }
    }
  });
  return per_pass * 1e9 / bytes;
}

InternCost store_intern(
    const std::vector<std::shared_ptr<const uspace::FileBlob>>& changed,
    const std::vector<std::shared_ptr<const uspace::FileBlob>>& unchanged) {
  InternCost cost;
  auto intern_all =
      [](const std::shared_ptr<store::ChunkStore>& chunk_store,
         const std::vector<std::shared_ptr<const uspace::FileBlob>>& files,
         std::vector<std::shared_ptr<const store::PinnedBlob>>& pins) {
        for (const auto& file : files) {
          auto pin = store::intern_bytes(chunk_store, *file->bytes(), file->checksum(),
                                         store::kDefaultStoreChunkBytes);
          if (pin) pins.push_back(std::move(pin.value()));
        }
      };
  auto total_bytes = [](const std::vector<std::shared_ptr<const uspace::FileBlob>>& files) {
    double bytes = 0;
    for (const auto& file : files) bytes += static_cast<double>(file->size());
    return bytes;
  };
  if (!changed.empty())
    cost.cold_ns_per_byte = time_per_pass([&] {
                              auto chunk_store = std::make_shared<store::ChunkStore>();
                              std::vector<std::shared_ptr<const store::PinnedBlob>> pins;
                              intern_all(chunk_store, changed, pins);
                            }) *
                            1e9 / total_bytes(changed);
  if (!unchanged.empty()) {
    auto chunk_store = std::make_shared<store::ChunkStore>();
    std::vector<std::shared_ptr<const store::PinnedBlob>> resident;
    intern_all(chunk_store, unchanged, resident);
    cost.warm_ns_per_byte = time_per_pass([&] {
                              std::vector<std::shared_ptr<const store::PinnedBlob>> pins;
                              intern_all(chunk_store, unchanged, pins);
                            }) *
                            1e9 / total_bytes(unchanged);
  }
  return cost;
}

}  // namespace gridbench::replay
