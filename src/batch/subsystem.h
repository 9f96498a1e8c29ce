// The simulated batch subsystem of one destination system (one Vsite).
//
// This is the third tier of Figure 1: jobs arrive as vendor-dialect
// scripts (validated against the dialect parser and queue limits), wait
// in queues, are placed on nodes by FCFS with optional EASY backfill,
// run for their simulated duration, and report stdout/stderr and exit
// status. UNICORE-submitted and locally-submitted jobs go through the
// identical path — the paper's site-autonomy principle ("Jobs delivered
// through UNICORE are treated the same way any other batch job is
// treated", §5.5).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/dialect.h"
#include "batch/target_system.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "uspace/filespace.h"
#include "util/result.h"
#include "util/rng.h"

namespace unicore::batch {

using BatchJobId = std::uint64_t;

enum class BatchJobState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleted,   // ran to completion (exit code may still be nonzero)
  kFailed,      // could not run / node failure
  kKilled,      // exceeded its wallclock limit
  kCancelled,   // qdel / ControlService abort
};

const char* batch_job_state_name(BatchJobState s);

/// What the job does when it "runs" — the structured counterpart of the
/// incarnated script (the script text itself is validated and archived;
/// semantics travel here, see DESIGN.md §2).
struct ExecutionSpec {
  /// Compute demand in seconds on a 1-GFLOPS processor; actual runtime
  /// is nominal_seconds / gflops_per_processor of this system.
  double nominal_seconds = 1.0;
  std::int32_t exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  /// Uspace files that must exist when the job starts (sources for a
  /// compile, objects for a link, the executable for a user task).
  std::vector<std::string> required_files;
  /// Files (name, bytes) created in the Uspace on successful completion.
  std::vector<std::pair<std::string, std::uint64_t>> output_files;
  /// The job's Uspace; may be null for jobs without file I/O.
  std::shared_ptr<uspace::Uspace> workspace;
};

/// Final accounting record of a job.
struct BatchResult {
  BatchJobState state = BatchJobState::kQueued;
  std::int32_t exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  sim::Time submitted_at = -1;
  sim::Time started_at = -1;
  sim::Time finished_at = -1;
  /// Started by EASY backfill, ahead of a job queued before it.
  bool backfilled = false;
};

/// Aggregate statistics for benches (utilisation, wait times).
struct SubsystemStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t backfilled_starts = 0;
  double total_wait_seconds = 0;
  double total_run_seconds = 0;
  double busy_node_seconds = 0;
};

class BatchSubsystem {
 public:
  using CompletionHandler = std::function<void(BatchJobId, const BatchResult&)>;

  BatchSubsystem(sim::Engine& engine, util::Rng rng, SystemConfig config);

  const SystemConfig& config() const { return config_; }

  /// Submits `script` (validated against this system's dialect and the
  /// named queue's limits). `owner` is the local login the gateway
  /// mapped the certificate to. The handler fires once, at completion.
  util::Result<BatchJobId> submit(const std::string& script,
                                  const std::string& owner,
                                  ExecutionSpec spec,
                                  CompletionHandler on_complete);

  /// NJS crash recovery: re-attaches a completion handler to an
  /// existing job, replacing any stored one. The batch subsystem is a
  /// separate process and keeps running through an NJS restart, so the
  /// recovered NJS reconnects to its submissions instead of submitting
  /// duplicates. If the job is already terminal the handler fires on
  /// the next engine event with the stored result.
  util::Status reattach(BatchJobId id, CompletionHandler on_complete);

  /// qdel: cancels a queued or running job.
  util::Status cancel(BatchJobId id);

  util::Result<BatchJobState> state(BatchJobId id) const;
  util::Result<BatchResult> result(BatchJobId id) const;

  /// Fault injection: an offline subsystem rejects new submissions with
  /// kUnavailable (already queued/running jobs keep executing).
  void set_offline(bool offline) { offline_ = offline; }
  bool offline() const { return offline_; }

  std::int64_t free_nodes() const { return free_nodes_; }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }
  const SubsystemStats& stats() const { return stats_; }

  /// Node-seconds utilisation over [0, now].
  double utilization() const;

  /// Outstanding work in node-seconds: queued jobs at their requested
  /// wallclock plus running jobs at their remaining limit. The quantity
  /// a site would publish as "load information" (§6) — dividing by the
  /// node count bounds the wait a newly arriving full-machine job sees.
  double backlog_node_seconds() const;

  /// Records queue-wait/run-time histograms, outcome counters, and
  /// queue-depth gauges into `registry`, labeled {usite, vsite}.
  /// Re-callable; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry, const std::string& usite);

 private:
  struct Job {
    BatchJobId id = 0;
    std::string owner;
    BatchRequest request;
    std::string script;
    ExecutionSpec spec;
    CompletionHandler on_complete;
    BatchJobState state = BatchJobState::kQueued;
    BatchResult result;
    std::int64_t nodes_needed = 0;
    sim::Time limit_deadline = 0;     // start + requested wallclock
    std::optional<sim::EventId> finish_event;
    std::optional<sim::EventId> limit_event;
  };

  /// A queued job with what the backfill walk reads, so the walk touches
  /// no Job it does not start.
  struct QueueEntry {
    BatchJobId id = 0;
    std::int64_t nodes = 0;
    sim::Time wallclock = 0;  // requested limit
  };

  /// A running job's nodes coming back at its wallclock deadline. Kept in
  /// this order, deadline then node count, which is the order the EASY
  /// shadow releases them in; the id only makes entries unique.
  struct Release {
    sim::Time deadline = 0;
    std::int64_t nodes = 0;
    BatchJobId id = 0;
    auto operator<=>(const Release&) const = default;
  };

  util::Status validate(const BatchRequest& request) const;
  std::int64_t nodes_needed(const BatchRequest& request) const;
  Job* find_job(BatchJobId id);
  const Job* find_job(BatchJobId id) const;
  void update_gauges();
  void count_outcome(BatchJobState state);
  void schedule_pass();
  /// Starts what EASY backfill allows behind the blocked queue head.
  void backfill_pass();
  void start_job(Job& job, bool backfilled);
  void finish_job(Job& job, BatchJobState state, std::int32_t exit_code,
                  std::string stderr_extra);
  /// EASY backfill bound: when could the queue head start, and how many
  /// nodes are spare at that instant?
  void compute_shadow(std::int64_t head_nodes, sim::Time& shadow_time,
                      std::int64_t& extra_nodes) const;

  sim::Engine& engine_;
  util::Rng rng_;
  SystemConfig config_;
  std::int64_t free_nodes_;
  /// Every job ever submitted: job `id` is jobs_[id - 1]. Ids are handed
  /// out densely from 1 and never reused; a deque keeps references stable.
  std::deque<Job> jobs_;
  std::deque<QueueEntry> queue_;  // submission order
  /// queued_by_nodes_[n]: queued jobs that need n nodes (1 <= n <= nodes).
  std::vector<std::size_t> queued_by_nodes_;
  std::vector<Release> running_;  // ascending
  bool offline_ = false;
  SubsystemStats stats_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Labels metric_labels_;
  /// unicore_batch_jobs_total per final BatchJobState, resolved on first
  /// use and dropped by set_metrics.
  std::array<obs::Counter*,
             static_cast<std::size_t>(BatchJobState::kCancelled) + 1>
      outcome_counters_{};
  obs::Counter* submitted_counter_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* run_time_hist_ = nullptr;
  obs::Gauge* queued_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Gauge* free_nodes_gauge_ = nullptr;
};

}  // namespace unicore::batch
