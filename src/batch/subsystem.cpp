#include "batch/subsystem.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace unicore::batch {

using util::ErrorCode;
using util::Result;
using util::Status;

const char* batch_job_state_name(BatchJobState s) {
  switch (s) {
    case BatchJobState::kQueued: return "QUEUED";
    case BatchJobState::kRunning: return "RUNNING";
    case BatchJobState::kCompleted: return "COMPLETED";
    case BatchJobState::kFailed: return "FAILED";
    case BatchJobState::kKilled: return "KILLED";
    case BatchJobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

BatchSubsystem::BatchSubsystem(sim::Engine& engine, util::Rng rng,
                               SystemConfig config)
    : engine_(engine),
      rng_(std::move(rng)),
      config_(std::move(config)),
      free_nodes_(config_.nodes),
      queued_by_nodes_(static_cast<std::size_t>(config_.nodes) + 1) {}

Status BatchSubsystem::validate(const BatchRequest& request) const {
  const QueueConfig* queue = config_.find_queue(request.queue);
  if (queue == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            config_.vsite + ": no such queue: " +
                                request.queue);
  if (request.processors < 1 || request.processors > queue->max_processors)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": processors " + std::to_string(request.processors) +
            " outside queue limit " + std::to_string(queue->max_processors));
  if (request.wallclock_seconds < 1 ||
      request.wallclock_seconds > queue->max_wallclock_seconds)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": wallclock " +
            std::to_string(request.wallclock_seconds) +
            "s outside queue limit " +
            std::to_string(queue->max_wallclock_seconds) + "s");
  if (request.memory_mb < 0 || request.memory_mb > queue->max_memory_mb)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": memory " + std::to_string(request.memory_mb) +
            "MB outside queue limit " + std::to_string(queue->max_memory_mb) +
            "MB");
  // A queue's limit may exceed the machine (the T3E's devel queue admits
  // 64 processors on any node count); such a job could never start.
  if (std::int64_t nodes = nodes_needed(request); nodes > config_.nodes)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": " + std::to_string(nodes) +
            " nodes needed, machine has " + std::to_string(config_.nodes));
  return Status::ok_status();
}

std::int64_t BatchSubsystem::nodes_needed(const BatchRequest& request) const {
  return (request.processors + config_.processors_per_node - 1) /
         config_.processors_per_node;
}

BatchSubsystem::Job* BatchSubsystem::find_job(BatchJobId id) {
  return id >= 1 && id <= jobs_.size() ? &jobs_[id - 1] : nullptr;
}

const BatchSubsystem::Job* BatchSubsystem::find_job(BatchJobId id) const {
  return id >= 1 && id <= jobs_.size() ? &jobs_[id - 1] : nullptr;
}

Result<BatchJobId> BatchSubsystem::submit(const std::string& script,
                                          const std::string& owner,
                                          ExecutionSpec spec,
                                          CompletionHandler on_complete) {
  if (offline_)
    return util::make_error(ErrorCode::kUnavailable,
                            config_.vsite + ": batch subsystem offline");
  if (owner.empty())
    return util::make_error(ErrorCode::kPermissionDenied,
                            config_.vsite + ": submission without a login");
  auto request = parse_directives(config_.architecture, script);
  if (!request) return request.error();
  if (auto status = validate(request.value()); !status.ok())
    return status.error();

  Job& job = jobs_.emplace_back();
  job.id = jobs_.size();
  job.owner = owner;
  job.request = std::move(request.value());
  job.script = script;
  job.spec = std::move(spec);
  job.on_complete = std::move(on_complete);
  job.nodes_needed = nodes_needed(job.request);
  job.result.submitted_at = engine_.now();

  BatchJobId id = job.id;
  queue_.push_back(
      {id, job.nodes_needed, sim::sec(job.request.wallclock_seconds)});
  ++queued_by_nodes_[job.nodes_needed];
  ++stats_.jobs_submitted;
  if (submitted_counter_) submitted_counter_->increment();
  update_gauges();

  // Scheduling runs as its own event so submit() stays non-reentrant.
  engine_.after(0, [this] { schedule_pass(); });
  return id;
}

void BatchSubsystem::compute_shadow(std::int64_t head_nodes,
                                    sim::Time& shadow_time,
                                    std::int64_t& extra_nodes) const {
  // Walk running jobs in release order, accumulating freed nodes until
  // the head job fits; that instant is the shadow time.
  std::int64_t available = free_nodes_;
  shadow_time = engine_.now();
  for (const Release& release : running_) {
    if (available >= head_nodes) break;
    available += release.nodes;
    shadow_time = release.deadline;
  }
  // Nodes the head job will not need at its (estimated) start.
  extra_nodes = std::max<std::int64_t>(0, available - head_nodes);
}

void BatchSubsystem::schedule_pass() {
  // FCFS: start from the front while jobs fit.
  while (!queue_.empty() && queue_.front().nodes <= free_nodes_) {
    Job& head = jobs_[queue_.front().id - 1];
    queue_.pop_front();
    start_job(head, /*backfilled=*/false);
  }
  if (!queue_.empty() && config_.use_backfill) backfill_pass();
  update_gauges();
}

void BatchSubsystem::backfill_pass() {
  // Nothing behind the head can start unless some queued job fits the
  // free nodes now (the head itself does not).
  bool any_fits = false;
  for (std::int64_t nodes = 1; nodes <= free_nodes_ && !any_fits; ++nodes)
    any_fits = queued_by_nodes_[nodes] != 0;
  if (!any_fits) return;

  // EASY backfill: jobs behind the head may start now if they do not
  // delay the head's estimated start. Only the head holds a reservation.
  const std::int64_t head_nodes = queue_.front().nodes;
  const sim::Time now = engine_.now();
  sim::Time shadow_time = 0;
  std::int64_t extra_nodes = 0;
  compute_shadow(head_nodes, shadow_time, extra_nodes);

  // Entries that stay slide down over started ones as the walk goes, and
  // one erase closes the gap. The walk ends once no node is free.
  auto kept = std::next(queue_.begin());
  auto it = kept;
  for (; it != queue_.end() && free_nodes_ > 0; ++it) {
    bool fits_now = it->nodes <= free_nodes_;
    bool ends_before_shadow = now + it->wallclock <= shadow_time;
    bool within_spare = it->nodes <= extra_nodes;
    if (fits_now && (ends_before_shadow || within_spare)) {
      start_job(jobs_[it->id - 1], /*backfilled=*/true);
      // Spare capacity shrinks as backfilled jobs take nodes.
      compute_shadow(head_nodes, shadow_time, extra_nodes);
    } else {
      if (kept != it) *kept = *it;
      ++kept;
    }
  }
  queue_.erase(kept, it);
}

void BatchSubsystem::start_job(Job& job, bool backfilled) {
  // The caller has taken the job off queue_; the pass updates the gauges
  // once its queue is compacted.
  --queued_by_nodes_[job.nodes_needed];
  free_nodes_ -= job.nodes_needed;
  job.limit_deadline =
      engine_.now() + sim::sec(job.request.wallclock_seconds);
  Release release{job.limit_deadline, job.nodes_needed, job.id};
  running_.insert(std::upper_bound(running_.begin(), running_.end(), release),
                  release);
  job.state = BatchJobState::kRunning;
  job.result.backfilled = backfilled;
  if (backfilled) ++stats_.backfilled_starts;
  job.result.started_at = engine_.now();
  double wait_seconds =
      sim::to_seconds(job.result.started_at - job.result.submitted_at);
  stats_.total_wait_seconds += wait_seconds;
  if (queue_wait_hist_) queue_wait_hist_->observe(wait_seconds);

  // Missing input files fail the job immediately (the script's first
  // command would have died the same way).
  std::vector<std::string> missing;
  for (const std::string& file : job.spec.required_files)
    if (job.spec.workspace == nullptr || !job.spec.workspace->exists(file))
      missing.push_back(file);
  if (!missing.empty()) {
    std::string message = "missing input file(s):";
    for (const std::string& file : missing) message += " " + file;
    BatchJobId id = job.id;
    engine_.after(sim::msec(100), [this, id, message] {
      if (Job& j = jobs_[id - 1]; j.state == BatchJobState::kRunning)
        finish_job(j, BatchJobState::kCompleted, 127, message);
    });
    return;
  }

  double actual_seconds =
      job.spec.nominal_seconds / config_.gflops_per_processor;
  sim::Time actual_runtime = sim::from_seconds(actual_seconds);

  // Node failure injection: the chance any of the job's nodes dies
  // during the run, with the failure instant uniform over the runtime.
  if (config_.node_mtbf_hours > 0) {
    double runtime_hours = actual_seconds / 3600.0;
    double failure_probability =
        1.0 - std::exp(-runtime_hours * static_cast<double>(job.nodes_needed) /
                       config_.node_mtbf_hours);
    if (rng_.chance(failure_probability)) {
      sim::Time failure_at = static_cast<sim::Time>(
          rng_.uniform() * static_cast<double>(actual_runtime));
      BatchJobId id = job.id;
      job.finish_event = engine_.after(failure_at, [this, id] {
        if (Job& j = jobs_[id - 1]; j.state == BatchJobState::kRunning)
          finish_job(j, BatchJobState::kFailed, 139,
                     "node failure during execution");
      });
      return;
    }
  }

  BatchJobId id = job.id;
  if (actual_runtime <= sim::sec(job.request.wallclock_seconds)) {
    job.finish_event = engine_.after(actual_runtime, [this, id] {
      if (Job& j = jobs_[id - 1]; j.state == BatchJobState::kRunning) {
        // Materialise output files; a full Uspace turns into a job error.
        std::string io_error;
        if (j.spec.workspace) {
          for (const auto& [name, size] : j.spec.output_files) {
            auto status = j.spec.workspace->write(
                name, uspace::FileBlob::synthetic(
                          size, j.id ^ crypto::digest_prefix64(
                                           crypto::sha256(name))));
            if (!status.ok()) {
              io_error = status.error().message;
              break;
            }
          }
        }
        if (!io_error.empty())
          finish_job(j, BatchJobState::kCompleted, 1, io_error);
        else
          finish_job(j, BatchJobState::kCompleted, j.spec.exit_code, "");
      }
    });
  } else {
    // The batch system kills the job at its requested wallclock limit.
    job.limit_event = engine_.after(
        sim::sec(job.request.wallclock_seconds), [this, id] {
          if (Job& j = jobs_[id - 1]; j.state == BatchJobState::kRunning)
            finish_job(j, BatchJobState::kKilled, 137,
                       "job killed: wallclock limit exceeded");
        });
  }
}

void BatchSubsystem::finish_job(Job& job, BatchJobState state,
                                std::int32_t exit_code,
                                std::string stderr_extra) {
  if (job.finish_event) engine_.cancel(*job.finish_event);
  if (job.limit_event) engine_.cancel(*job.limit_event);
  job.finish_event.reset();
  job.limit_event.reset();

  free_nodes_ += job.nodes_needed;
  running_.erase(std::lower_bound(
      running_.begin(), running_.end(),
      Release{job.limit_deadline, job.nodes_needed, job.id}));

  job.state = state;
  job.result.state = state;
  job.result.exit_code = exit_code;
  job.result.finished_at = engine_.now();
  double run_seconds =
      sim::to_seconds(job.result.finished_at - job.result.started_at);
  stats_.total_run_seconds += run_seconds;
  stats_.busy_node_seconds +=
      run_seconds * static_cast<double>(job.nodes_needed);
  if (run_time_hist_) run_time_hist_->observe(run_seconds);
  count_outcome(state);
  update_gauges();

  switch (state) {
    case BatchJobState::kCompleted: ++stats_.jobs_completed; break;
    case BatchJobState::kFailed: ++stats_.jobs_failed; break;
    case BatchJobState::kKilled: ++stats_.jobs_killed; break;
    case BatchJobState::kCancelled: ++stats_.jobs_cancelled; break;
    default: break;
  }

  job.result.stdout_text =
      (state == BatchJobState::kCompleted && exit_code == job.spec.exit_code)
          ? job.spec.stdout_text
          : "";
  job.result.stderr_text = job.spec.stderr_text;
  if (!stderr_extra.empty()) {
    if (!job.result.stderr_text.empty()) job.result.stderr_text += "\n";
    job.result.stderr_text += stderr_extra;
  }

  UNICORE_DEBUG("batch/" + config_.vsite)
      << "job " << job.id << " (" << job.request.job_name << ") "
      << batch_job_state_name(state) << " exit=" << exit_code;

  if (job.on_complete) {
    auto handler = std::move(job.on_complete);
    job.on_complete = nullptr;
    handler(job.id, job.result);
  }
  engine_.after(0, [this] { schedule_pass(); });
}

Status BatchSubsystem::reattach(BatchJobId id, CompletionHandler on_complete) {
  Job* found = find_job(id);
  if (found == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  Job& job = *found;
  if (job.state == BatchJobState::kQueued ||
      job.state == BatchJobState::kRunning) {
    job.on_complete = std::move(on_complete);
    return Status::ok_status();
  }
  // Already terminal: deliver the stored result asynchronously so the
  // caller sees the same once-at-completion contract as submit().
  engine_.after(0, [this, id, handler = std::move(on_complete)] {
    if (handler) handler(id, jobs_[id - 1].result);
  });
  return Status::ok_status();
}

Status BatchSubsystem::cancel(BatchJobId id) {
  Job* found = find_job(id);
  if (found == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  Job& job = *found;
  switch (job.state) {
    case BatchJobState::kQueued: {
      queue_.erase(std::find_if(
          queue_.begin(), queue_.end(),
          [id](const QueueEntry& entry) { return entry.id == id; }));
      --queued_by_nodes_[job.nodes_needed];
      job.result.started_at = engine_.now();
      job.state = BatchJobState::kCancelled;
      job.result.state = BatchJobState::kCancelled;
      job.result.exit_code = 130;
      job.result.finished_at = engine_.now();
      ++stats_.jobs_cancelled;
      count_outcome(BatchJobState::kCancelled);
      update_gauges();
      if (job.on_complete) {
        auto handler = std::move(job.on_complete);
        job.on_complete = nullptr;
        handler(id, job.result);
      }
      return Status::ok_status();
    }
    case BatchJobState::kRunning:
      finish_job(job, BatchJobState::kCancelled, 130, "job cancelled");
      return Status::ok_status();
    default:
      return util::make_error(ErrorCode::kFailedPrecondition,
                              "batch job already finished");
  }
}

Result<BatchJobState> BatchSubsystem::state(BatchJobId id) const {
  const Job* job = find_job(id);
  if (job == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  return job->state;
}

Result<BatchResult> BatchSubsystem::result(BatchJobId id) const {
  const Job* job = find_job(id);
  if (job == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  return job->result;
}

double BatchSubsystem::backlog_node_seconds() const {
  // Summed in node-microseconds, exactly, then converted once.
  sim::Time backlog = 0;
  for (const QueueEntry& entry : queue_)
    backlog += entry.nodes * entry.wallclock;
  for (const Release& release : running_)
    backlog += release.nodes *
               std::max<sim::Time>(0, release.deadline - engine_.now());
  return sim::to_seconds(backlog);
}

double BatchSubsystem::utilization() const {
  double elapsed = sim::to_seconds(engine_.now());
  if (elapsed <= 0) return 0;
  return stats_.busy_node_seconds /
         (elapsed * static_cast<double>(config_.nodes));
}

void BatchSubsystem::set_metrics(obs::MetricsRegistry* registry,
                                 const std::string& usite) {
  metrics_ = registry;
  outcome_counters_ = {};
  if (!metrics_) {
    submitted_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    run_time_hist_ = nullptr;
    queued_gauge_ = nullptr;
    running_gauge_ = nullptr;
    free_nodes_gauge_ = nullptr;
    return;
  }
  metric_labels_ = {{"usite", usite}, {"vsite", config_.vsite}};
  submitted_counter_ =
      &metrics_->counter("unicore_batch_jobs_submitted_total", metric_labels_);
  queue_wait_hist_ = &metrics_->histogram("unicore_batch_queue_wait_seconds",
                                          metric_labels_,
                                          obs::duration_buckets());
  run_time_hist_ = &metrics_->histogram("unicore_batch_run_seconds",
                                        metric_labels_,
                                        obs::duration_buckets());
  queued_gauge_ = &metrics_->gauge("unicore_batch_queued_jobs", metric_labels_);
  running_gauge_ =
      &metrics_->gauge("unicore_batch_running_jobs", metric_labels_);
  free_nodes_gauge_ =
      &metrics_->gauge("unicore_batch_free_nodes", metric_labels_);
  update_gauges();
}

void BatchSubsystem::update_gauges() {
  if (!metrics_) return;
  queued_gauge_->set(static_cast<double>(queue_.size()));
  running_gauge_->set(static_cast<double>(running_.size()));
  free_nodes_gauge_->set(static_cast<double>(free_nodes_));
}

void BatchSubsystem::count_outcome(BatchJobState state) {
  if (!metrics_) return;
  obs::Counter*& counter = outcome_counters_[static_cast<std::size_t>(state)];
  if (counter == nullptr) {
    obs::Labels labels = metric_labels_;
    labels.emplace_back("outcome", batch_job_state_name(state));
    counter = &metrics_->counter("unicore_batch_jobs_total", std::move(labels));
  }
  counter->increment();
}

}  // namespace unicore::batch
