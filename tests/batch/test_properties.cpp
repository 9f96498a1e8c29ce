// Randomized property tests of the batch subsystem: under arbitrary
// workloads (mixed sizes, overruns, cancellations, failures) the node
// accounting stays consistent and every job reaches a terminal state,
// and recorded digests pin the schedule each workload produces.
#include <gtest/gtest.h>

#include <cmath>

#include "batch/subsystem.h"
#include "batch/target_system.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace unicore::batch {
namespace {

struct WorkloadResult {
  std::int64_t min_free = 0;
  std::int64_t max_free = 0;
  int completions = 0;
  int submitted_ok = 0;
};

/// FNV-1a over every job's schedule record, in id order: a change to
/// when, how or whether any job ran changes the digest.
std::uint64_t schedule_digest(const BatchSubsystem& batch) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (BatchJobId id = 1; id <= batch.stats().jobs_submitted; ++id) {
    BatchResult result = batch.result(id).value();
    mix(id);
    mix(static_cast<std::uint64_t>(result.state));
    mix(static_cast<std::uint64_t>(result.started_at));
    mix(static_cast<std::uint64_t>(result.finished_at));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(result.exit_code)));
    mix(result.backfilled ? 1 : 0);
  }
  return hash;
}

/// One seeded workload on a 32-node machine: FCFS or EASY, with or
/// without node failures, by seed; 120 submissions, some overrunning
/// their limit, and 10 random cancellations.
struct RandomWorkloadRun {
  explicit RandomWorkloadRun(std::uint64_t seed)
      : config(make_config(seed)),
        batch(engine, util::Rng(seed), config),
        rng(seed ^ 0xfeed) {
    result.min_free = config.nodes;
    for (int i = 0; i < 120; ++i) {
      engine.at(sim::sec(rng.range(0, 2'000)), [this, i] {
        BatchRequest request;
        request.queue = "default";
        request.processors = 1 + static_cast<std::int64_t>(rng.below(32));
        request.wallclock_seconds = 10 + static_cast<std::int64_t>(rng.below(2'000));
        request.memory_mb = 64;
        request.job_name = "p" + std::to_string(i);
        ExecutionSpec spec;
        // Some jobs overrun their limit on purpose.
        spec.nominal_seconds =
            static_cast<double>(request.wallclock_seconds) *
            (rng.chance(0.2) ? 2.0 : rng.uniform());
        auto id = batch.submit(
            render_directives(config.architecture, request), "user",
            std::move(spec),
            [this](BatchJobId, const BatchResult&) { ++result.completions; });
        if (id.ok()) {
          ++result.submitted_ok;
          ids.push_back(id.value());
        }
      });
    }
    // Random cancellations mid-flight.
    for (int i = 0; i < 10; ++i) {
      engine.at(sim::sec(rng.range(100, 3'000)), [this] {
        if (!ids.empty()) (void)batch.cancel(ids[rng.below(ids.size())]);
      });
    }
    // Observe free-node bounds continuously.
    for (int t = 0; t < 400; ++t) {
      engine.at(sim::sec(t * 10), [this] {
        result.min_free = std::min(result.min_free, batch.free_nodes());
        result.max_free = std::max(result.max_free, batch.free_nodes());
      });
    }
  }

  static SystemConfig make_config(std::uint64_t seed) {
    SystemConfig config;
    config.vsite = "prop";
    config.architecture = resources::Architecture::kGenericUnix;
    config.nodes = 32;
    config.gflops_per_processor = 1.0;
    config.queues = {{"default", 32, 10'000, 1 << 20}};
    config.use_backfill = (seed % 2) == 0;
    config.node_mtbf_hours = (seed % 3) == 0 ? 5.0 : 0.0;
    return config;
  }

  sim::Engine engine;
  SystemConfig config;
  BatchSubsystem batch;
  util::Rng rng;
  WorkloadResult result;
  std::vector<BatchJobId> ids;
};

class RandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkload, NodeAccountingInvariantsHold) {
  RandomWorkloadRun run(GetParam());
  run.engine.run();
  const WorkloadResult& result = run.result;
  const BatchSubsystem& batch = run.batch;

  // Invariants: free nodes never negative, never above the machine
  // size; every submitted job reported exactly one completion; queues
  // drained; all nodes returned.
  EXPECT_GE(result.min_free, 0);
  EXPECT_LE(result.max_free, run.config.nodes);
  EXPECT_EQ(result.completions, result.submitted_ok);
  EXPECT_EQ(batch.queued_jobs(), 0u);
  EXPECT_EQ(batch.running_jobs(), 0u);
  EXPECT_EQ(batch.free_nodes(), run.config.nodes);

  // Stats are internally consistent.
  const SubsystemStats& stats = batch.stats();
  EXPECT_EQ(stats.jobs_completed + stats.jobs_failed + stats.jobs_killed +
                stats.jobs_cancelled,
            static_cast<std::uint64_t>(result.submitted_ok));
}

// Every job's start, finish, exit code and backfill flag, recorded per
// seed: the scheduler's bookkeeping may change, its schedule may not.
TEST_P(RandomWorkload, ScheduleMatchesGolden) {
  constexpr std::uint64_t kGolden[] = {
      0x768d79ebf18cc73cULL, 0xa1de3999cdbb6de9ULL, 0x5776611e0b7aae39ULL,
      0x9b5a6c4070159b04ULL, 0x806245eaaf9a3c91ULL, 0xf8666b47bcc06ff8ULL,
      0x1bfda11231b69778ULL, 0xd16d7b138e962d6aULL, 0x69398b934c2a84f4ULL,
      0x50413cb8c4e2ab92ULL, 0x85f432b3e986384bULL, 0xc0a662e79f28496fULL,
  };
  RandomWorkloadRun run(GetParam());
  run.engine.run();
  ASSERT_LT(GetParam(), std::size(kGolden));
  EXPECT_EQ(schedule_digest(run.batch), kGolden[GetParam()])
      << std::hex << "0x" << schedule_digest(run.batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(BatchDeterminism, IdenticalSeedsIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    SystemConfig config;
    config.vsite = "det";
    config.nodes = 16;
    config.queues = {{"default", 16, 10'000, 1 << 20}};
    BatchSubsystem batch(engine, util::Rng(seed), config);
    util::Rng rng(99);
    std::vector<sim::Time> finish_times;
    for (int i = 0; i < 40; ++i) {
      BatchRequest request;
      request.queue = "default";
      request.processors = 1 + static_cast<std::int64_t>(rng.below(16));
      request.wallclock_seconds = 1'000;
      request.memory_mb = 8;
      ExecutionSpec spec;
      spec.nominal_seconds = 10 + rng.uniform() * 500;
      (void)batch.submit(
          render_directives(config.architecture, request), "u",
          std::move(spec),
          [&finish_times, &engine](BatchJobId, const BatchResult&) {
            finish_times.push_back(engine.now());
          });
    }
    engine.run();
    return finish_times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(6), run(6));
}

// A campaign-shaped burst on a 128-node T3E: 4/8/16-node jobs of up to
// ~20 minutes, each followed by a 1-node job of under a minute, all
// arriving in the first minute. More than a thousand wait at once, so
// every pass walks a deep queue.
TEST(BatchDeterminism, DeepQueueScheduleMatchesGolden) {
  constexpr std::int64_t kWidths[] = {4, 8, 16};
  constexpr double kGflops = 0.6;
  sim::Engine engine;
  SystemConfig config = make_cray_t3e("deep", 128);
  BatchSubsystem batch(engine, util::Rng(3), config);
  util::Rng rng(2024);
  auto submit_at = [&](sim::Time at, std::int64_t processors, double seconds) {
    BatchRequest request;
    request.queue = "prod";
    request.processors = processors;
    request.wallclock_seconds =
        static_cast<std::int64_t>(std::ceil(seconds / kGflops * 1.25)) + 60;
    request.memory_mb = 64;
    std::string script = render_directives(config.architecture, request);
    engine.at(at, [&batch, script = std::move(script), seconds] {
      ExecutionSpec spec;
      spec.nominal_seconds = seconds;
      ASSERT_TRUE(batch.submit(script, "user", std::move(spec), nullptr).ok());
    });
  };
  for (int i = 0; i < 800; ++i) {
    // One draw per statement: argument evaluation order is unspecified.
    sim::Time at = sim::msec(static_cast<std::int64_t>(rng.below(60'000)));
    std::int64_t width = kWidths[rng.below(std::size(kWidths))];
    double simulate = std::min(rng.exponential(240.0), 720.0) + 1.0;
    double reduce = std::min(rng.exponential(10.0), 40.0) + 1.0;
    submit_at(at, width, simulate);
    submit_at(at, 1, reduce);
  }
  std::size_t queued_at_burst_end = 0;
  engine.at(sim::sec(61), [&] { queued_at_burst_end = batch.queued_jobs(); });
  engine.run();

  EXPECT_GE(queued_at_burst_end, 1'000u);
  EXPECT_EQ(batch.stats().jobs_submitted, 1'600u);
  EXPECT_EQ(batch.stats().jobs_completed, 1'600u);
  EXPECT_EQ(schedule_digest(batch), 0xd740a9fa8f21f666ULL)
      << std::hex << "0x" << schedule_digest(batch);
}

}  // namespace
}  // namespace unicore::batch
