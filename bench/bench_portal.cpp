// P1 — the portal layer's scaling story (docs/PORTAL.md): bearer-token
// session throughput at the gateway, one_run latency cold vs over a
// resumed channel, and 1 -> 10k concurrent token sessions with traffic
// multiplexed over pooled channels.
//
// Real time measures CPU cost; `virtual_ms` counters report simulated
// network latency. `active_sessions` proves the concurrent-session
// high-water mark at the broker. The rows whose counters are means or
// maxima over the loop pin their iterations, so those counters are
// exact and CI compares them with the committed BENCH_portal.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "client/sync_client.h"
#include "client/workflow.h"
#include "common/test_env.h"
#include "gateway/session_broker.h"

namespace {

using namespace unicore;
using testing::SingleSite;

std::vector<client::WorkflowStep> portal_steps() {
  client::WorkflowStep prepare;
  prepare.name = "prepare";
  prepare.script = "./prepare\n";
  prepare.behavior.nominal_seconds = 2;
  client::WorkflowStep analyse;
  analyse.name = "analyse";
  analyse.script = "./analyse\n";
  analyse.after = {"prepare"};
  analyse.behavior.nominal_seconds = 3;
  analyse.behavior.stdout_text = "done\n";
  return {prepare, analyse};
}

client::WorkflowParameters portal_parameters() {
  client::WorkflowParameters parameters;
  parameters.job_name = "bench-flow";
  parameters.usite = SingleSite::kUsite;
  parameters.vsite = SingleSite::kVsite;
  parameters.account_group = "project-a";
  parameters.poll_interval = sim::sec(1);
  return parameters;
}

// Token sessions per second through one authenticated channel: each
// iteration mints a session at the gateway and closes it again. After
// the first open the gateway's auth cache carries the certificate
// validation, so this is the broker's own cost.
void BM_SessionOpenClose(benchmark::State& state) {
  SingleSite site(/*seed=*/11);
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  double virtual_ms_total = 0;
  for (auto _ : state) {
    sim::Time start = site.grid.engine().now();
    bool ok = false;
    client->open_session(0, [&ok](util::Result<gateway::SessionGrant> r) {
      ok = r.ok();
    });
    site.grid.engine().run();
    if (!ok) state.SkipWithError("session open failed");
    client->close_session([](util::Status) {});
    site.grid.engine().run();
    virtual_ms_total +=
        sim::to_seconds(site.grid.engine().now() - start) * 1e3;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virtual_ms"] = virtual_ms_total / state.iterations();
}
BENCHMARK(BM_SessionOpenClose)->Iterations(200);

// Per-request token validation cost once a session exists: storage
// listings riding the kTokenRequest envelope, answered from the
// generation-stamped fast path.
void BM_TokenRequestFastPath(benchmark::State& state) {
  SingleSite site(/*seed=*/12);
  auto client = site.make_client();
  client::SyncClient sync(site.grid.engine(), *client);
  if (!sync.connect(site.address()).ok() || !sync.open_session().ok()) {
    state.SkipWithError("setup failed");
    return;
  }

  for (auto _ : state) {
    if (!sync.list_storages().ok())
      state.SkipWithError("token request failed");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["fast_validations"] = static_cast<double>(
      site.server->session_broker().fast_validations());
}
BENCHMARK(BM_TokenRequestFastPath)->Iterations(1000);

// one_run end to end: cold (fresh client, full public-key handshake,
// fresh session) vs resumed (ticket-resumption reconnect, token kept
// across the channel drop).
void BM_OneRunLatency(benchmark::State& state) {
  bool resumed = state.range(0) != 0;
  SingleSite site(/*seed=*/13);
  auto steps = portal_steps();
  auto parameters = portal_parameters();

  auto client = site.make_client();
  client::SyncClient sync(site.grid.engine(), *client);
  if (resumed) {
    if (!sync.connect(site.address()).ok() || !sync.open_session().ok()) {
      state.SkipWithError("setup failed");
      return;
    }
  }

  double virtual_ms_total = 0;
  for (auto _ : state) {
    sim::Time start = site.grid.engine().now();
    util::Result<client::WorkflowRun> run =
        util::make_error(util::ErrorCode::kInternal, "not run");
    if (resumed) {
      client->disconnect();
      if (!sync.connect(site.address()).ok() ||
          !client->session_resumed())
        state.SkipWithError("resumption failed");
      run = sync.one_run(steps, parameters);
    } else {
      auto fresh = site.make_client("cold" + std::to_string(
                                        state.iterations()) +
                                    ".example.de");
      client::SyncClient fresh_sync(site.grid.engine(), *fresh);
      if (!fresh_sync.connect(site.address()).ok())
        state.SkipWithError("handshake failed");
      run = fresh_sync.one_run(steps, parameters);
    }
    if (!run.ok()) state.SkipWithError("one_run failed");
    virtual_ms_total +=
        sim::to_seconds(site.grid.engine().now() - start) * 1e3;
  }
  state.counters["virtual_ms"] = virtual_ms_total / state.iterations();
  state.SetLabel(resumed ? "resumed" : "cold");
}
BENCHMARK(BM_OneRunLatency)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"resumed"})
    ->Iterations(20);

// The portal scaling claim: n distinct users, each a lightweight
// client (no transfer rails), all holding live token sessions at once.
// Their tokens are then multiplexed over ONE pooled channel whose peer
// certificate belongs to the portal — set_session_token per request.
// `active_sessions` records the broker's high-water mark.
void BM_ConcurrentTokenSessions(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  SingleSite site(/*seed=*/14);
  site.server->session_broker().set_ttl(24 * 3600);  // no mid-bench expiry

  std::vector<std::unique_ptr<client::UnicoreClient>> clients;
  clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string id = std::to_string(i);
    crypto::Credential user = site.grid.create_user(
        "User " + id, "Portal Org", "user" + id + "@example.de");
    (void)site.grid.map_user(user.certificate.subject, SingleSite::kUsite,
                             "uc" + id, {"project-a"});
    client::UnicoreClient::Config config;
    config.host = "pc" + id + ".example.de";
    config.user = user;
    config.trust = &site.client_trust;
    config.transfer_streams = 0;  // lightweight: one channel per client
    clients.push_back(std::make_unique<client::UnicoreClient>(
        site.grid.engine(), site.grid.network(), site.grid.rng(), config));
  }
  std::size_t connected = 0;
  for (auto& c : clients)
    c->connect(site.address(),
               [&connected](util::Status s) { connected += s.ok(); });
  site.grid.engine().run();
  if (connected != n) {
    state.SkipWithError("handshakes failed");
    return;
  }

  auto pooled = site.make_client("portal.example.de");
  pooled->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  double max_active = 0;
  std::size_t multiplexed_ok = 0;
  for (auto _ : state) {
    std::size_t opened = 0;
    for (auto& c : clients)
      c->open_session(0, [&opened](util::Result<gateway::SessionGrant> r) {
        opened += r.ok();
      });
    site.grid.engine().run();
    if (opened != n) state.SkipWithError("session opens failed");
    max_active = std::max(
        max_active,
        static_cast<double>(site.server->session_broker().active()));

    // Every user's traffic over the one pooled channel.
    for (auto& c : clients) {
      pooled->set_session_token(c->session_token());
      pooled->list_storages(
          [&multiplexed_ok](
              util::Result<std::vector<njs::StorageInfo>> r) {
            multiplexed_ok += r.ok();
          });
    }
    site.grid.engine().run();
    pooled->set_session_token({});

    for (auto& c : clients) c->close_session([](util::Status) {});
    site.grid.engine().run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["active_sessions"] = max_active;
  state.counters["multiplexed_ok"] =
      static_cast<double>(multiplexed_ok) / state.iterations();
}
BENCHMARK(BM_ConcurrentTokenSessions)
    ->RangeMultiplier(10)
    ->Range(1, 10'000)
    ->ArgNames({"sessions"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
