// Batch-subsystem scheduling ablation: FCFS vs EASY backfill on a
// synthetic workload (the design-choice knob DESIGN.md §5 calls out for
// the third tier). Reported in virtual time: mean wait, makespan,
// utilisation, and how many jobs backfilled.
//
//   BM_ScheduleWorkload   64 nodes, 100-1,600 jobs of 1-64 processors
//                         arriving over the first hour
//   BM_ScheduleDeepQueue  the gridbench campaign's shape: 128 nodes and
//                         4,000 jobs, 4/8/16-node ones each followed by
//                         a short 1-node one, all arriving in the first
//                         minute, so thousands wait at once
#include <benchmark/benchmark.h>

#include <cmath>

#include "batch/subsystem.h"
#include "batch/target_system.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using namespace unicore;

batch::SystemConfig machine(std::int64_t nodes, double gflops,
                            bool backfill) {
  batch::SystemConfig config;
  config.vsite = "bench";
  config.architecture = resources::Architecture::kGenericUnix;
  config.nodes = nodes;
  config.processors_per_node = 1;
  config.gflops_per_processor = gflops;
  config.queues = {{"default", nodes, 86'400, 1 << 20}};
  config.use_backfill = backfill;
  return config;
}

/// Submits one job at `at`; `remaining` counts down as jobs complete.
void submit_at(sim::Engine& engine, batch::BatchSubsystem& batch,
               int& remaining, sim::Time at, std::int64_t procs,
               std::int64_t requested, double runtime) {
  engine.at(at, [&batch, &remaining, procs, requested, runtime] {
    batch::BatchRequest request;
    request.queue = "default";
    request.processors = procs;
    request.wallclock_seconds = requested;
    request.memory_mb = 64;
    batch::ExecutionSpec spec;
    spec.nominal_seconds = runtime;
    (void)batch.submit(
        batch::render_directives(batch.config().architecture, request),
        "user", std::move(spec),
        [&remaining](batch::BatchJobId, const batch::BatchResult&) {
          --remaining;
        });
  });
}

/// Virtual-time results summed over iterations, reported as means.
struct Totals {
  double wait = 0, makespan = 0, utilization = 0, backfilled = 0;
  int runs = 0;

  void add(const sim::Engine& engine, const batch::BatchSubsystem& batch,
           int jobs) {
    const batch::SubsystemStats& stats = batch.stats();
    wait += stats.total_wait_seconds / jobs;
    makespan += sim::to_seconds(engine.now());
    utilization += batch.utilization();
    backfilled += static_cast<double>(stats.backfilled_starts);
    ++runs;
  }

  void report(benchmark::State& state, bool backfill) const {
    state.counters["mean_wait_s"] = wait / runs;
    state.counters["makespan_s"] = makespan / runs;
    state.counters["utilization"] = utilization / runs;
    state.counters["backfilled"] = backfilled / runs;
    state.SetLabel(backfill ? "EASY backfill" : "pure FCFS");
  }
};

void BM_ScheduleWorkload(benchmark::State& state) {
  bool backfill = state.range(0) != 0;
  int jobs = static_cast<int>(state.range(1));

  Totals totals;
  for (auto _ : state) {
    sim::Engine engine;
    batch::BatchSubsystem batch(engine, util::Rng(totals.runs + 1),
                                machine(64, 1.0, backfill));

    util::Rng workload(999);
    int remaining = jobs;
    // A bursty arrival pattern: all jobs arrive within the first hour.
    for (int i = 0; i < jobs; ++i) {
      // Log-uniform-ish size mix: mostly small jobs, a few very wide.
      std::int64_t procs = 1LL << workload.below(7);  // 1..64
      double runtime = workload.exponential(600.0);
      std::int64_t requested = static_cast<std::int64_t>(runtime * 2) + 600;
      submit_at(engine, batch, remaining, sim::sec(workload.range(0, 3'600)),
                procs, requested, runtime);
    }
    engine.run();
    if (remaining != 0) state.SkipWithError("jobs did not drain");
    totals.add(engine, batch, jobs);
  }
  totals.report(state, backfill);
}
BENCHMARK(BM_ScheduleWorkload)
    ->ArgsProduct({{0, 1}, {100, 400, 1600}})
    ->ArgNames({"backfill", "jobs"})
    ->Unit(benchmark::kMillisecond);

void BM_ScheduleDeepQueue(benchmark::State& state) {
  constexpr std::int64_t kWidths[] = {4, 8, 16};
  constexpr double kGflops = 0.6;  // T3E per-processor speed
  constexpr int kPoints = 2'000;   // two jobs each
  bool backfill = state.range(0) != 0;
  // The campaign's wallclock request: 25% headroom plus a minute.
  auto requested = [](double nominal) {
    return static_cast<std::int64_t>(std::ceil(nominal / kGflops * 1.25)) +
           60;
  };

  Totals totals;
  for (auto _ : state) {
    sim::Engine engine;
    batch::BatchSubsystem batch(engine, util::Rng(totals.runs + 1),
                                machine(128, kGflops, backfill));

    util::Rng workload(4'000);
    int remaining = 2 * kPoints;
    for (int i = 0; i < kPoints; ++i) {
      sim::Time at =
          sim::msec(static_cast<std::int64_t>(workload.below(60'000)));
      std::int64_t procs = kWidths[workload.below(std::size(kWidths))];
      double simulate = std::min(workload.exponential(240.0), 720.0) + 1.0;
      double reduce = std::min(workload.exponential(10.0), 40.0) + 1.0;
      submit_at(engine, batch, remaining, at, procs, requested(simulate),
                simulate);
      submit_at(engine, batch, remaining, at, 1, requested(reduce), reduce);
    }
    engine.run();
    if (remaining != 0) state.SkipWithError("jobs did not drain");
    totals.add(engine, batch, 2 * kPoints);
  }
  totals.report(state, backfill);
}
BENCHMARK(BM_ScheduleDeepQueue)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("backfill")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
