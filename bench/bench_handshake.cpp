// C2 — the security architecture's connection cost: mutual SSL-style
// handshake latency, combined vs firewall-split deployment, and the
// end-to-end consign latency including gateway checks.
//
// Real time measures CPU cost; the `virtual_ms` counter reports the
// protocol latency in simulated network time (what a 1999 user felt).
#include <benchmark/benchmark.h>

#include "common/test_env.h"
#include "crypto/modmath.h"
#include "net/channel_pool.h"
#include "net/session.h"

namespace {

using namespace unicore;
using testing::SingleSite;

void BM_HandshakeLatency(benchmark::State& state) {
  bool split = state.range(0) != 0;
  SingleSite site(/*seed=*/1, split);
  double virtual_ms_total = 0;
  int connections = 0;

  for (auto _ : state) {
    auto client =
        site.make_client("ws" + std::to_string(connections) + ".example.de");
    sim::Time start = site.grid.engine().now();
    bool ok = false;
    client->connect(site.address(),
                    [&ok](util::Status status) { ok = status.ok(); });
    site.grid.engine().run();
    if (!ok) state.SkipWithError("handshake failed");
    virtual_ms_total +=
        sim::to_seconds(site.grid.engine().now() - start) * 1e3;
    ++connections;
  }
  state.counters["virtual_ms"] = virtual_ms_total / connections;
  state.SetLabel(split ? "firewall-split" : "combined");
}
BENCHMARK(BM_HandshakeLatency)->Arg(0)->Arg(1)->ArgNames({"split"});

void BM_ConsignLatency(benchmark::State& state) {
  bool split = state.range(0) != 0;
  SingleSite site(/*seed=*/2, split);
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  auto job = testing::make_cle_job(site.user.certificate.subject,
                                   SingleSite::kUsite, SingleSite::kVsite)
                 .value();
  double virtual_ms_total = 0;
  int submissions = 0;
  for (auto _ : state) {
    sim::Time start = site.grid.engine().now();
    bool done = false;
    client->submit(job, [&done](util::Result<ajo::JobToken> result) {
      done = result.ok();
    });
    // Drain only until the consign reply arrives; leave jobs running.
    while (!done && site.grid.engine().step()) {
    }
    if (!done) state.SkipWithError("consign failed");
    virtual_ms_total +=
        sim::to_seconds(site.grid.engine().now() - start) * 1e3;
    ++submissions;
  }
  state.counters["virtual_ms"] = virtual_ms_total / submissions;
  state.SetLabel(split ? "firewall-split" : "combined");
}
BENCHMARK(BM_ConsignLatency)->Arg(0)->Arg(1)->ArgNames({"split"});

// Full vs resumed handshake on a bare channel pair. The powmod_ops
// counter is the "crypto operation" meter: every RSA sign/verify and DH
// step is one or more modular exponentiations. The acceptance bar is
// resumed <= 1/5 of full; the resumed path measures 0. Both rows run a
// fixed number of iterations, so virtual_ms (a floating-point mean) is
// exact and CI compares it, with powmod_ops and resumed, against the
// committed BENCH_security.json.
void BM_SecureHandshake(benchmark::State& state) {
  const bool resume = state.range(0) != 0;
  sim::Engine engine;
  util::Rng rng{41};
  net::Network network{engine, util::Rng(42)};
  constexpr std::int64_t kYear = 365 * 86'400LL;
  crypto::CertificateAuthority ca{{"DE", "Bench", "", "CA", ""}, rng,
                                  net::kSimulationEpoch, 10 * kYear};
  crypto::TrustStore trust;
  trust.add_root(ca.certificate());
  crypto::Credential server_cred = ca.issue_credential(
      {"DE", "Bench", "", "server", ""}, rng, net::kSimulationEpoch, kYear,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential client_cred = ca.issue_credential(
      {"DE", "Bench", "", "client", ""}, rng, net::kSimulationEpoch, kYear,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  net::SessionTicketManager tickets{rng};
  tickets.attach_trust(&trust);
  net::SessionCache cache;

  std::shared_ptr<net::SecureChannel> server;
  (void)network.listen({"server", 443},
                       [&](std::shared_ptr<net::Endpoint> endpoint) {
                         net::SecureChannel::Config config;
                         config.credential = server_cred;
                         config.trust = &trust;
                         config.required_peer_usage = crypto::kUsageClientAuth;
                         config.ticket_manager = &tickets;
                         server = net::SecureChannel::as_server(
                             engine, rng, std::move(endpoint), config,
                             [](util::Status) {});
                       });

  auto connect = [&](bool* ok) {
    net::SecureChannel::Config config;
    config.credential = client_cred;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    config.session_cache = &cache;
    auto endpoint = network.connect("client", {"server", 443}).value();
    auto channel = net::SecureChannel::as_client(
        engine, rng, std::move(endpoint), config,
        [ok](util::Status status) { *ok = status.ok(); });
    engine.run();
    return channel;
  };

  if (resume) {  // one full handshake warms the ticket cache
    bool ok = false;
    connect(&ok);
    if (!ok) state.SkipWithError("warmup handshake failed");
  }

  double virtual_ms_total = 0;
  std::uint64_t ops_total = 0;
  std::uint64_t resumed_count = 0;
  int handshakes = 0;
  for (auto _ : state) {
    if (!resume) cache.clear();
    crypto::reset_powmod_ops();
    sim::Time start = engine.now();
    bool ok = false;
    auto channel = connect(&ok);
    if (!ok) state.SkipWithError("handshake failed");
    ops_total += crypto::powmod_ops();
    virtual_ms_total += sim::to_seconds(engine.now() - start) * 1e3;
    if (channel->resumed()) ++resumed_count;
    ++handshakes;
  }
  state.counters["virtual_ms"] = virtual_ms_total / handshakes;
  state.counters["powmod_ops"] =
      static_cast<double>(ops_total) / handshakes;
  state.counters["resumed"] =
      static_cast<double>(resumed_count) / handshakes;
  state.SetLabel(resume ? "resumed" : "full");
}
BENCHMARK(BM_SecureHandshake)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"resume"})
    ->Iterations(2000);

void BM_SecureChannelMessageThroughput(benchmark::State& state) {
  SingleSite site(/*seed=*/3);
  sim::Engine& engine = site.grid.engine();
  net::Network& network = site.grid.network();

  // A raw secure channel pair on a LAN-like link.
  net::LinkProfile lan;
  lan.latency = sim::usec(200);
  lan.bandwidth_bytes_per_sec = 100e6;
  network.set_link("h1", "h2", lan);

  crypto::TrustStore trust = site.grid.make_trust_store();
  crypto::Credential server_cred = site.grid.ca().issue_credential(
      {"DE", "X", "", "h2", ""}, site.grid.rng(), site.grid.now_epoch(),
      86'400 * 365, crypto::kUsageServerAuth);

  std::shared_ptr<net::SecureChannel> server;
  net::SecureChannel::Config server_config;
  server_config.credential = server_cred;
  server_config.trust = &trust;
  (void)network.listen({"h2", 1}, [&](std::shared_ptr<net::Endpoint> e) {
    server = net::SecureChannel::as_server(engine, site.grid.rng(),
                                           std::move(e), server_config,
                                           [](util::Status) {});
  });
  net::SecureChannel::Config client_config;
  client_config.credential = site.user;
  client_config.trust = &trust;
  client_config.required_peer_usage = crypto::kUsageServerAuth;
  auto endpoint = network.connect("h1", {"h2", 1}).value();
  auto client = net::SecureChannel::as_client(
      engine, site.grid.rng(), std::move(endpoint), client_config,
      [](util::Status) {});
  engine.run();

  std::size_t payload = static_cast<std::size_t>(state.range(0));
  util::Bytes message = util::Rng(4).bytes(payload);
  std::uint64_t received = 0;
  server->set_receiver([&received](util::Bytes&&) { ++received; });

  for (auto _ : state) {
    client->send(message);
    engine.run();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * payload));
  state.counters["received"] = static_cast<double>(received);
}
BENCHMARK(BM_SecureChannelMessageThroughput)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
