// The simulated batch subsystem: admission, FCFS, EASY backfill, limit
// kills, cancellation, file semantics, failure injection, accounting.
#include "batch/subsystem.h"

#include <gtest/gtest.h>

#include "batch/target_system.h"
#include "obs/metrics.h"

namespace unicore::batch {
namespace {

struct SubsystemFixture : public ::testing::Test {
  sim::Engine engine;

  SystemConfig small_system(bool backfill = true) {
    SystemConfig config;
    config.vsite = "test";
    config.architecture = resources::Architecture::kGenericUnix;
    config.nodes = 8;
    config.processors_per_node = 1;
    config.gflops_per_processor = 1.0;  // nominal seconds == real seconds
    config.memory_mb_per_node = 1'024;
    config.queues = {{"default", 8, 86'400, 8 * 1'024}};
    config.use_backfill = backfill;
    return config;
  }

  std::string script(std::int64_t procs, std::int64_t wallclock,
                     const std::string& name = "job") {
    BatchRequest request;
    request.queue = "default";
    request.processors = procs;
    request.wallclock_seconds = wallclock;
    request.memory_mb = 64;
    request.job_name = name;
    return render_directives(resources::Architecture::kGenericUnix, request);
  }

  ExecutionSpec spec(double seconds) {
    ExecutionSpec s;
    s.nominal_seconds = seconds;
    s.stdout_text = "out";
    return s;
  }
};

TEST_F(SubsystemFixture, JobRunsAndCompletes) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  BatchResult final_result;
  auto id = batch.submit(script(2, 100), "user1", spec(10),
                         [&](BatchJobId, const BatchResult& r) {
                           final_result = r;
                         });
  ASSERT_TRUE(id.ok()) << id.error().to_string();
  engine.run();
  EXPECT_EQ(final_result.state, BatchJobState::kCompleted);
  EXPECT_EQ(final_result.exit_code, 0);
  EXPECT_EQ(final_result.stdout_text, "out");
  EXPECT_EQ(final_result.finished_at - final_result.started_at, sim::sec(10));
  EXPECT_EQ(batch.stats().jobs_completed, 1u);
}

TEST_F(SubsystemFixture, SubmissionWithoutLoginRejected) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  auto id = batch.submit(script(1, 10), "", spec(1), nullptr);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(SubsystemFixture, QueueLimitsEnforced) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  // Too many processors for the queue.
  EXPECT_FALSE(batch.submit(script(16, 10), "u", spec(1), nullptr).ok());
  // Too much wallclock.
  EXPECT_FALSE(batch.submit(script(1, 100'000), "u", spec(1), nullptr).ok());
  // Unknown queue.
  std::string bad = script(1, 10);
  bad.replace(bad.find("default"), 7, "nosuchq");
  EXPECT_FALSE(batch.submit(bad, "u", spec(1), nullptr).ok());
}

TEST_F(SubsystemFixture, JobWiderThanMachineRejected) {
  // The T3E's devel queue admits 64 processors whatever the node count.
  SystemConfig config = make_cray_t3e("V", 8);
  BatchSubsystem batch(engine, util::Rng(1), config);
  auto devel = [&](std::int64_t procs) {
    BatchRequest request;
    request.queue = "devel";
    request.processors = procs;
    request.wallclock_seconds = 100;
    request.memory_mb = 64;
    return render_directives(config.architecture, request);
  };
  auto wide = batch.submit(devel(16), "u", spec(10), nullptr);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_NE(wide.error().message.find("16 nodes needed, machine has 8"),
            std::string::npos)
      << wide.error().message;
  // Queue limits are still reported first, with their own text.
  auto over_queue = batch.submit(devel(65), "u", spec(10), nullptr);
  ASSERT_FALSE(over_queue.ok());
  EXPECT_NE(over_queue.error().message.find("outside queue limit 64"),
            std::string::npos)
      << over_queue.error().message;
  // A job behind the rejected one is not blocked by it.
  BatchResult result;
  ASSERT_TRUE(batch
                  .submit(devel(1), "u", spec(10),
                          [&](BatchJobId, const BatchResult& r) { result = r; })
                  .ok());
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCompleted);
  EXPECT_EQ(batch.queued_jobs(), 0u);
  EXPECT_EQ(batch.free_nodes(), 8);
  EXPECT_EQ(batch.stats().jobs_submitted, 1u);
}

TEST_F(SubsystemFixture, FcfsOrderWithoutBackfill) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(false));
  std::vector<int> start_order;
  auto submit = [&](int tag, std::int64_t procs, double seconds) {
    (void)batch.submit(script(procs, 1'000, "j" + std::to_string(tag)), "u",
                       spec(seconds),
                       [&start_order, tag](BatchJobId,
                                           const BatchResult&) {
                         start_order.push_back(tag);
                       });
  };
  // 8 nodes: job1 takes all; job2 (8 nodes) blocks; job3 (1 node, tiny)
  // must NOT jump ahead without backfill.
  submit(1, 8, 10);
  submit(2, 8, 10);
  submit(3, 1, 1);
  engine.run();
  ASSERT_EQ(start_order.size(), 3u);
  EXPECT_EQ(start_order[0], 1);
  EXPECT_EQ(start_order[1], 2);
  EXPECT_EQ(start_order[2], 3);
}

TEST_F(SubsystemFixture, EasyBackfillLetsSmallJobsThrough) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  std::vector<std::pair<int, sim::Time>> finishes;
  auto submit = [&](int tag, std::int64_t procs, std::int64_t wallclock,
                    double seconds) {
    (void)batch.submit(script(procs, wallclock), "u", spec(seconds),
                       [&finishes, tag, this](BatchJobId,
                                              const BatchResult&) {
                         finishes.emplace_back(tag, engine.now());
                       });
  };
  // Job1: 6 nodes for 100 s. Job2 wants 8 nodes -> waits for job1.
  // Job3 wants 2 nodes for 50 s (within job2's shadow) -> backfills now.
  submit(1, 6, 1'000, 100);
  submit(2, 8, 1'000, 100);
  submit(3, 2, 50, 40);
  engine.run();
  ASSERT_EQ(finishes.size(), 3u);
  // Job3 finished before job1 (it started immediately on the spare nodes).
  sim::Time t1 = -1, t3 = -1;
  for (auto& [tag, at] : finishes) {
    if (tag == 1) t1 = at;
    if (tag == 3) t3 = at;
  }
  EXPECT_LT(t3, t1);
  EXPECT_EQ(batch.stats().backfilled_starts, 1u);
}

TEST_F(SubsystemFixture, BackfillNeverDelaysQueueHead) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  sim::Time head_started = -1;
  // Job1: 6 nodes, 100 s. Head (job2): 8 nodes.
  (void)batch.submit(script(6, 100), "u", spec(100), nullptr);
  (void)batch.submit(script(8, 100), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) {
                       head_started = r.started_at;
                     });
  // Job3: 2 nodes but 1000 s requested — would outlive the shadow and
  // does not fit the spare nodes (8-8=0) => must NOT backfill.
  (void)batch.submit(script(2, 1'000), "u", spec(999), nullptr);
  engine.run();
  // Head started right when job1 freed its nodes (~100 s), not ~1000 s.
  EXPECT_EQ(head_started, sim::sec(100) + sim::usec(0));
  EXPECT_EQ(batch.stats().backfilled_starts, 0u);
}

TEST_F(SubsystemFixture, ShadowReleasesTiedDeadlinesNarrowestFirst) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  auto submit = [&](std::int64_t procs, std::int64_t wallclock,
                    double seconds) {
    return batch.submit(script(procs, wallclock), "u", spec(seconds), nullptr)
        .value();
  };
  // B, A and C take 7 of 8 nodes; B and A share the 1,000 s deadline.
  // The head D needs 4 nodes, so its shadow is 1,000 s. Releasing the
  // tied deadlines narrowest first (A's 1 node, then B's 3) leaves one
  // node spare at the shadow, and E backfills onto it at once.
  // Releasing B first would leave none, and E would wait for D.
  submit(3, 1'000, 1'000);                   // B
  submit(1, 1'000, 1'000);                   // A
  submit(3, 2'000, 2'000);                   // C
  BatchJobId d = submit(4, 1'000, 100);      // D, the queue head
  BatchJobId e = submit(1, 5'000, 100);      // E
  engine.run();
  BatchResult head = batch.result(d).value();
  BatchResult backfilled = batch.result(e).value();
  EXPECT_EQ(backfilled.started_at, 0);
  EXPECT_TRUE(backfilled.backfilled);
  EXPECT_EQ(head.started_at, sim::sec(1'000));
  EXPECT_FALSE(head.backfilled);
  EXPECT_EQ(batch.stats().backfilled_starts, 1u);
}

TEST_F(SubsystemFixture, GaugesMatchAfterBackfillPass) {
  obs::MetricsRegistry registry;
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  batch.set_metrics(&registry, "U");
  const obs::Labels labels = {{"usite", "U"}, {"vsite", "test"}};
  auto expect_gauges_match = [&] {
    EXPECT_EQ(registry.gauge("unicore_batch_queued_jobs", labels).value(),
              static_cast<double>(batch.queued_jobs()));
    EXPECT_EQ(registry.gauge("unicore_batch_running_jobs", labels).value(),
              static_cast<double>(batch.running_jobs()));
    EXPECT_EQ(registry.gauge("unicore_batch_free_nodes", labels).value(),
              static_cast<double>(batch.free_nodes()));
  };
  // A holds 4 nodes until 1,000 s; the 8-node head waits for it. Four of
  // six 1-node jobs backfill into the free half in one pass.
  (void)batch.submit(script(4, 1'000), "u", spec(1'000), nullptr);
  (void)batch.submit(script(8, 1'000), "u", spec(10), nullptr);
  for (int i = 0; i < 6; ++i)
    (void)batch.submit(script(1, 100), "u", spec(50), nullptr);
  engine.run_until(sim::sec(1));
  EXPECT_EQ(batch.queued_jobs(), 3u);
  EXPECT_EQ(batch.running_jobs(), 5u);
  EXPECT_EQ(batch.free_nodes(), 0);
  EXPECT_EQ(batch.stats().backfilled_starts, 4u);
  expect_gauges_match();
  // At 50 s the four finish and the last two backfill.
  engine.run_until(sim::sec(60));
  EXPECT_EQ(batch.queued_jobs(), 1u);
  EXPECT_EQ(batch.running_jobs(), 3u);
  EXPECT_EQ(batch.free_nodes(), 2);
  EXPECT_EQ(batch.stats().backfilled_starts, 6u);
  expect_gauges_match();
  engine.run();
  expect_gauges_match();
}

TEST_F(SubsystemFixture, WallclockLimitKillsJob) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  BatchResult result;
  // Requests 10 s but actually needs 100 s.
  (void)batch.submit(script(1, 10), "u", spec(100),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kKilled);
  EXPECT_EQ(result.exit_code, 137);
  EXPECT_NE(result.stderr_text.find("wallclock limit"), std::string::npos);
  EXPECT_EQ(result.finished_at - result.started_at, sim::sec(10));
  EXPECT_EQ(batch.stats().jobs_killed, 1u);
}

TEST_F(SubsystemFixture, MissingInputFilesFailFast) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(100);
  s.workspace = std::make_shared<uspace::Uspace>("job", 0);
  s.required_files = {"solver.f90"};
  BatchResult result;
  (void)batch.submit(script(1, 1'000), "u", std::move(s),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCompleted);
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_NE(result.stderr_text.find("missing input file"),
            std::string::npos);
  // Failed within a fraction of a second, not after 100 s.
  EXPECT_LT(result.finished_at - result.started_at, sim::sec(1));
}

TEST_F(SubsystemFixture, OutputFilesMaterialiseInWorkspace) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(5);
  s.workspace = std::make_shared<uspace::Uspace>("job", 0);
  s.output_files = {{"result.dat", 4096}, {"log.txt", 128}};
  auto workspace = s.workspace;
  (void)batch.submit(script(1, 100), "u", std::move(s), nullptr);
  engine.run();
  EXPECT_TRUE(workspace->exists("result.dat"));
  EXPECT_TRUE(workspace->exists("log.txt"));
  EXPECT_EQ(workspace->read("result.dat").value().size(), 4096u);
}

TEST_F(SubsystemFixture, FullWorkspaceTurnsIntoJobError) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(5);
  s.workspace = std::make_shared<uspace::Uspace>("job", 100);  // tiny quota
  s.output_files = {{"huge.dat", 1 << 20}};
  BatchResult result;
  (void)batch.submit(script(1, 100), "u", std::move(s),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCompleted);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("quota"), std::string::npos);
}

TEST_F(SubsystemFixture, CancelQueuedJob) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  (void)batch.submit(script(8, 100), "u", spec(50), nullptr);  // occupies all
  BatchResult result;
  auto id = batch.submit(script(8, 100), "u", spec(50),
                         [&](BatchJobId, const BatchResult& r) {
                           result = r;
                         });
  engine.run_until(sim::sec(1));
  ASSERT_EQ(batch.state(id.value()).value(), BatchJobState::kQueued);
  ASSERT_TRUE(batch.cancel(id.value()).ok());
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCancelled);
  EXPECT_EQ(batch.stats().jobs_cancelled, 1u);
}

TEST_F(SubsystemFixture, CancelRunningJobFreesNodes) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  auto id = batch.submit(script(8, 1'000), "u", spec(900), nullptr);
  engine.run_until(sim::sec(1));
  ASSERT_EQ(batch.state(id.value()).value(), BatchJobState::kRunning);
  EXPECT_EQ(batch.free_nodes(), 0);
  ASSERT_TRUE(batch.cancel(id.value()).ok());
  EXPECT_EQ(batch.free_nodes(), 8);
  EXPECT_FALSE(batch.cancel(id.value()).ok());  // already finished
}

TEST_F(SubsystemFixture, NodeFailureInjection) {
  SystemConfig config = small_system();
  config.node_mtbf_hours = 0.01;  // absurdly flaky: ~36 s MTBF per node
  BatchSubsystem batch(engine, util::Rng(7), config);
  int failed = 0, completed = 0;
  for (int i = 0; i < 50; ++i) {
    (void)batch.submit(script(4, 3'600), "u", spec(600),
                       [&](BatchJobId, const BatchResult& r) {
                         if (r.state == BatchJobState::kFailed)
                           ++failed;
                         else
                           ++completed;
                       });
  }
  engine.run();
  EXPECT_EQ(failed + completed, 50);
  EXPECT_GT(failed, 25);  // with nodes*10min vs 36s MTBF, most jobs die
}

TEST_F(SubsystemFixture, NoFailuresWhenMtbfZero) {
  BatchSubsystem batch(engine, util::Rng(7), small_system());
  for (int i = 0; i < 20; ++i)
    (void)batch.submit(script(4, 3'600), "u", spec(600), nullptr);
  engine.run();
  EXPECT_EQ(batch.stats().jobs_failed, 0u);
  EXPECT_EQ(batch.stats().jobs_completed, 20u);
}

TEST_F(SubsystemFixture, UtilizationAccounting) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  // 4 nodes busy for 100 s on an 8-node machine, then idle to t=200.
  (void)batch.submit(script(4, 200), "u", spec(100), nullptr);
  engine.run();
  engine.run_until(sim::sec(200));
  EXPECT_NEAR(batch.utilization(), 4.0 * 100 / (8.0 * 200), 0.01);
  EXPECT_NEAR(batch.stats().busy_node_seconds, 400.0, 1.0);
}

TEST_F(SubsystemFixture, PerformanceScalesRuntime) {
  SystemConfig fast = small_system();
  fast.gflops_per_processor = 2.0;
  BatchSubsystem batch(engine, util::Rng(1), fast);
  BatchResult result;
  (void)batch.submit(script(1, 100), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  // 10 nominal seconds on a 2-GFLOPS processor -> 5 s wallclock.
  EXPECT_EQ(result.finished_at - result.started_at, sim::sec(5));
}

TEST_F(SubsystemFixture, VendorConfigsHaveConsistentQueues) {
  for (const SystemConfig& config :
       {make_cray_t3e("a"), make_fujitsu_vpp700("b"), make_ibm_sp2("c"),
        make_nec_sx4("d")}) {
    EXPECT_FALSE(config.queues.empty());
    for (const QueueConfig& queue : config.queues) {
      EXPECT_LE(queue.max_processors, config.total_processors());
      EXPECT_GT(queue.max_wallclock_seconds, 0);
      EXPECT_NE(config.find_queue(queue.name), nullptr);
    }
    EXPECT_EQ(config.find_queue("no-such-queue"), nullptr);
  }
}

}  // namespace
}  // namespace unicore::batch
