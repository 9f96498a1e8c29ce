// C5 — the §5.6 file-transfer picture, before and after the chunked
// transfer engine:
//
// "Imports from Xspace to Uspace and exports from Uspace to Xspace are
//  always local operations performed at a Vsite. ... The file transfer
//  between Uspaces has to be accomplished through NJS–NJS communication
//  via the gateway ... As this solution has disadvantages with respect
//  to transfer rates especially for huge data sets UNICORE is working
//  on alternatives."
//
// Three series:
//   - the local Xspace->Uspace copy (the paper's fast case),
//   - the legacy whole-blob NJS–NJS delivery (one message, one
//     connection — the transfer-rate ceiling the paper concedes),
//   - the chunked engine (src/xfer/) at 1/2/4/8 parallel streams, the
//     file travelling as a bundle of one.
//
// `virtual_ms` is the simulated elapsed time; `virtual_MBps` the
// effective rate the user observes. The simulated network serialises
// bandwidth per directed host pair, so the rails share one link: more
// streams keep it busy, they do not widen it.
//
// Every row runs a fixed number of iterations, so its mean `virtual_ms`
// is a function of the code alone, not of a wall-clock-chosen count:
// CI compares it exactly against the committed BENCH_transfer.json
// (scripts/bench_transfer.sh writes it).
#include <benchmark/benchmark.h>

#include <limits>

#include "common/test_env.h"
#include "grid/testbed.h"

namespace {

using namespace unicore;

/// Iterations per row; each one is a fresh transfer on the same grid.
constexpr int kIterations = 3;

struct TwoSites {
  grid::Grid grid{5};
  crypto::Credential user;
  ajo::JobToken receiver_token = 0;  // a parked job at LRZ whose Uspace
                                     // receives the remote deliveries

  TwoSites() {
    grid::make_german_testbed(grid);
    user = grid::add_testbed_user(grid, "Bench User", "bench@example.de");

    // Park a long-running job at LRZ so its Uspace exists.
    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "VPP700";
    job.user = user.certificate.subject;
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("sleeper");
    task->script = "sleep forever\n";
    task->set_resource_request({1, 86'400, 64, 0, 8});
    task->behavior.nominal_seconds = 1e7;
    job.add(std::move(task));

    gateway::AuthenticatedUser auth{user.certificate.subject, "xbench",
                                    {"project-a"}};
    auto token = grid.site("LRZ")->njs().consign(job, auth,
                                                 user.certificate);
    receiver_token = token.value();
    grid.engine().run_until(grid.engine().now() + sim::sec(1));
  }
};

void BM_LocalImportXspaceToUspace(benchmark::State& state) {
  TwoSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  auto* njs = &env.grid.site("FZ-Juelich")->njs();
  auto* home = njs->xspace("T3E-600")->find_volume("home");
  (void)home->write("data/in.bin", uspace::FileBlob::synthetic(bytes, 1));

  gateway::AuthenticatedUser auth{env.user.certificate.subject, "ucbench",
                                  {"project-a"}};
  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    ajo::AbstractJobObject job;
    job.set_name("import");
    job.vsite = "T3E-600";
    job.user = env.user.certificate.subject;
    auto import = std::make_unique<ajo::ImportTask>();
    import->source = ajo::ImportTask::Source::kXspace;
    import->xspace_source = {"home", "data/in.bin"};
    import->uspace_name = "in.bin";
    job.add(std::move(import));

    sim::Time start = env.grid.engine().now();
    bool done = false;
    bool ok = false;
    auto token = njs->consign(
        job, auth, env.user.certificate,
        [&done, &ok](ajo::JobToken, const ajo::Outcome& outcome) {
          done = true;
          ok = outcome.status == ajo::ActionStatus::kSuccessful;
        });
    if (!token.ok()) state.SkipWithError("consign failed");
    while (!done && env.grid.engine().step()) {
    }
    if (!ok) state.SkipWithError("import failed");
    virtual_ms_total +=
        sim::to_seconds(env.grid.engine().now() - start) * 1e3;
    ++runs;
  }
  double mean_ms = virtual_ms_total / runs;
  state.counters["virtual_ms"] = mean_ms;
  state.counters["virtual_MBps"] =
      static_cast<double>(bytes) / 1e6 / (mean_ms / 1e3);
  state.SetLabel("local copy (Xspace->Uspace)");
}
BENCHMARK(BM_LocalImportXspaceToUspace)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20)
    ->Iterations(kIterations);

/// Shared driver for the two remote-delivery series.
void run_remote_delivery(benchmark::State& state, std::uint64_t bytes,
                         bool chunked, std::size_t streams) {
  TwoSites env;
  njs::RemoteJobHandle handle{"LRZ", env.receiver_token};
  auto* juelich = env.grid.site("FZ-Juelich");
  if (chunked) {
    juelich->set_transfer_threshold(0);
    juelich->set_transfer_streams(streams);
  } else {
    juelich->set_transfer_threshold(
        std::numeric_limits<std::uint64_t>::max());
  }

  // Warm up the peer channel (and rails) so handshakes are not measured.
  bool warm = false;
  juelich->deliver_file(
      handle, "warmup",
      std::make_shared<const uspace::FileBlob>(
          uspace::FileBlob::synthetic(8, 3)),
      [&](util::Status) { warm = true; });
  while (!warm && env.grid.engine().step()) {
  }
  if (!warm) state.SkipWithError("peer link failed");

  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    // Fresh content every round: the receiver's content-addressed
    // store would satisfy a repeated blob out of the open's digest
    // manifest without moving a byte, and this series measures the
    // cold path (the dedup-warm path is bench_store's subject).
    auto blob = std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::synthetic(bytes, 2 + runs));
    sim::Time start = env.grid.engine().now();
    bool done = false;
    bool replied = false;
    juelich->deliver_file(handle, "chunk" + std::to_string(runs), blob,
                          [&](util::Status status) {
                            replied = true;
                            done = status.ok();
                          });
    while (!replied && env.grid.engine().step()) {
    }
    if (!done) state.SkipWithError("delivery failed");
    virtual_ms_total +=
        sim::to_seconds(env.grid.engine().now() - start) * 1e3;
    ++runs;
  }
  double mean_ms = virtual_ms_total / runs;
  state.counters["virtual_ms"] = mean_ms;
  state.counters["virtual_MBps"] =
      static_cast<double>(bytes) / 1e6 / (mean_ms / 1e3);
}

void BM_RemoteUspaceToUspaceViaGateway(benchmark::State& state) {
  run_remote_delivery(state, static_cast<std::uint64_t>(state.range(0)),
                      /*chunked=*/false, 1);
  state.SetLabel("legacy whole-blob (FZJ->LRZ)");
}
BENCHMARK(BM_RemoteUspaceToUspaceViaGateway)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20)
    ->Iterations(kIterations);

void BM_RemoteChunkedDeliver(benchmark::State& state) {
  run_remote_delivery(state, static_cast<std::uint64_t>(state.range(0)),
                      /*chunked=*/true,
                      static_cast<std::size_t>(state.range(1)));
  state.SetLabel("chunked x" + std::to_string(state.range(1)) +
                 " streams (FZJ->LRZ)");
}
BENCHMARK(BM_RemoteChunkedDeliver)
    ->ArgsProduct({{64 << 10, 1 << 20, 8 << 20, 64 << 20}, {1, 2, 4, 8}})
    ->Iterations(kIterations);

void BM_RemoteFetchFile(benchmark::State& state) {
  // The reverse direction: pulling a dependency file from a remote
  // predecessor's Uspace. range(1): 0 = legacy whole-blob, else the
  // chunked stream count.
  TwoSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  bool chunked = state.range(1) != 0;
  (void)env.grid.site("LRZ")->njs().deliver_file(
      env.receiver_token, "big.out", uspace::FileBlob::synthetic(bytes, 4));
  njs::RemoteJobHandle handle{"LRZ", env.receiver_token};
  auto* juelich = env.grid.site("FZ-Juelich");
  if (chunked) {
    juelich->set_transfer_threshold(0);
    juelich->set_transfer_streams(static_cast<std::size_t>(state.range(1)));
  } else {
    juelich->set_transfer_threshold(
        std::numeric_limits<std::uint64_t>::max());
  }

  bool warm = false;
  juelich->fetch_files(
      handle, {"big.out"},
      [&](util::Result<std::vector<uspace::FileBlob>>) { warm = true; });
  while (!warm && env.grid.engine().step()) {
  }

  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    sim::Time start = env.grid.engine().now();
    bool done = false;
    bool replied = false;
    juelich->fetch_files(
        handle, {"big.out"},
        [&](util::Result<std::vector<uspace::FileBlob>> result) {
          replied = true;
          done = result.ok();
        });
    while (!replied && env.grid.engine().step()) {
    }
    if (!done) state.SkipWithError("fetch failed");
    virtual_ms_total +=
        sim::to_seconds(env.grid.engine().now() - start) * 1e3;
    ++runs;
  }
  state.counters["virtual_ms"] = virtual_ms_total / runs;
  state.counters["virtual_MBps"] = static_cast<double>(bytes) / 1e6 /
                                   (virtual_ms_total / runs / 1e3);
  state.SetLabel(chunked ? "fetch chunked x" + std::to_string(state.range(1))
                         : "fetch legacy whole-blob");
}
BENCHMARK(BM_RemoteFetchFile)
    ->ArgsProduct({{1 << 20, 8 << 20, 64 << 20}, {0, 4}})
    ->Iterations(kIterations);

}  // namespace

BENCHMARK_MAIN();
