#include "njs/njs.h"

#include <algorithm>

#include "ajo/codec.h"
#include "crypto/sha256.h"
#include "util/log.h"

namespace unicore::njs {

using ajo::ActionId;
using ajo::ActionStatus;
using ajo::ActionType;
using ajo::JobToken;
using util::ErrorCode;
using util::Result;
using util::Status;

util::Bytes ForwardedConsignment::signing_input(
    const ajo::AbstractJobObject& job, const crypto::Certificate& user_cert) {
  util::ByteWriter w;
  w.blob(ajo::encode_action(job));
  w.blob(user_cert.der());
  return w.take();
}

util::Bytes ForwardedConsignment::idempotency_key() const {
  util::ByteWriter w;
  w.blob(signing_input(job, user_certificate));
  w.u64(signature.value);
  w.blob(consignor_certificate.der());
  return crypto::digest_bytes(crypto::sha256(w.take()));
}

// ---- internal structures -------------------------------------------------

struct Njs::VsiteRuntime {
  VsiteConfig config;
  std::unique_ptr<batch::BatchSubsystem> subsystem;
  uspace::Xspace xspace;
  TranslationTable table;
  // Opens after consecutive kUnavailable submit failures (dead Vsite);
  // static validation rejections never trip it.
  util::CircuitBreaker breaker;
};

struct Njs::ActionRun {
  ajo::AbstractAction* action = nullptr;
  ActionStatus status = ActionStatus::kPending;
  int pending_predecessors = 0;
  std::vector<const ajo::Dependency*> outgoing;
  ajo::Outcome outcome;
  batch::BatchJobId batch_id = 0;
  std::unique_ptr<GroupRun> subgroup;            // local sub-job
  std::optional<RemoteJobHandle> remote;         // remote sub-job
  std::map<std::string, uspace::FileBlob> staged_files;  // pre-dispatch
  bool dispatched = false;
  bool recovered = false;      // re-attached to a pre-crash batch job
  obs::SpanId span = 0;        // trace span covering this action
  sim::Time ready_at = -1;     // when the action became dispatchable
};

struct Njs::GroupRun {
  ajo::AbstractJobObject* group = nullptr;
  GroupRun* parent = nullptr;          // enclosing group (null at root)
  ActionRun* owner = nullptr;          // the ActionRun this group realises
  VsiteRuntime* runtime = nullptr;     // destination system, if any
  std::shared_ptr<uspace::Uspace> workspace;
  std::map<ActionId, ActionRun> actions;
  int open_actions = 0;  // direct children not yet terminal
  bool held = false;
  obs::SpanId span = 0;  // parent span for this group's action spans
};

struct Njs::JobRun {
  JobToken token = 0;
  ajo::AbstractJobObject job;  // owned deep copy
  gateway::AuthenticatedUser user;
  crypto::Certificate user_certificate;
  FinalHandler on_final;
  GroupRun root;
  sim::Time consigned_at = 0;
  bool finalized = false;
  bool storage_reaped = false;  // workspaces emptied, quota freed
  util::Bytes idempotency_key;  // non-empty for forwarded consignments
  // Terminal Outcome restored from the journal; when set, the job has no
  // live GroupRun tree and query/list answer from this record.
  std::optional<ajo::Outcome> recovered_outcome;
  obs::TraceTimeline trace;
};

// ---- construction ----------------------------------------------------------

Njs::Njs(sim::Engine& engine, util::Rng rng, std::string usite,
         crypto::Credential server_credential)
    : engine_(engine),
      rng_(std::move(rng)),
      usite_(std::move(usite)),
      credential_(std::move(server_credential)),
      metrics_(std::make_shared<obs::MetricsRegistry>()) {
  wire_metrics();
}

Njs::~Njs() = default;

void Njs::wire_metrics() {
  obs::Labels labels{{"usite", usite_}};
  consigned_counter_ =
      &metrics_->counter("unicore_njs_jobs_consigned_total", labels);
  completed_counter_ =
      &metrics_->counter("unicore_njs_jobs_completed_total", labels);
  recoveries_counter_ =
      &metrics_->counter("unicore_njs_recoveries_total", labels);
  dedupe_counter_ =
      &metrics_->counter("unicore_njs_consigns_deduped_total", labels);
  batch_retry_counter_ =
      &metrics_->counter("unicore_njs_batch_retries_total", labels);
  reattach_counter_ =
      &metrics_->counter("unicore_njs_batch_reattached_total", labels);
  storage_reap_counter_ =
      &metrics_->counter("unicore_njs_storages_reaped_total", labels);
  dispatch_latency_hist_ = &metrics_->histogram(
      "unicore_njs_dispatch_latency_seconds", labels, obs::latency_buckets());
  job_duration_hist_ = &metrics_->histogram("unicore_njs_job_duration_seconds",
                                            labels, obs::duration_buckets());
  reap_reclaimed_counter_ = nullptr;
  accounting_counters_.clear();
  for (auto& [name, runtime] : vsites_)
    runtime->subsystem->set_metrics(metrics_.get(), usite_);
}

void Njs::set_metrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  if (registry == nullptr || registry == metrics_) return;
  metrics_ = std::move(registry);
  wire_metrics();
}

void Njs::refresh_gauges() {
  metrics_->gauge("unicore_njs_active_jobs", {{"usite", usite_}})
      .set(static_cast<double>(active_jobs()));
}

Result<const obs::TraceTimeline*> Njs::trace(JobToken token) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  return &it->second->trace;
}

batch::BatchSubsystem& Njs::add_vsite(VsiteConfig config) {
  auto runtime = std::make_shared<VsiteRuntime>();
  runtime->table = config.table.value_or(
      default_translation_table(config.system.architecture));
  runtime->config = std::move(config);
  runtime->subsystem = std::make_unique<batch::BatchSubsystem>(
      engine_, rng_.fork(), runtime->config.system);
  // Every Vsite gets a home volume in its Xspace by default.
  (void)runtime->xspace.create_volume("home", 0);
  const std::string name = runtime->config.system.vsite;
  auto& slot = vsites_[name];
  slot = std::move(runtime);
  slot->subsystem->set_metrics(metrics_.get(), usite_);
  return *slot->subsystem;
}

void Njs::share_vsites(Njs& primary) {
  for (const auto& [name, runtime] : primary.vsites_) vsites_[name] = runtime;
}

std::vector<std::string> Njs::vsites() const {
  std::vector<std::string> out;
  out.reserve(vsites_.size());
  for (const auto& [name, runtime] : vsites_) out.push_back(name);
  return out;
}

batch::BatchSubsystem* Njs::subsystem(const std::string& vsite) {
  auto it = vsites_.find(vsite);
  return it == vsites_.end() ? nullptr : it->second->subsystem.get();
}

uspace::Xspace* Njs::xspace(const std::string& vsite) {
  auto it = vsites_.find(vsite);
  return it == vsites_.end() ? nullptr : &it->second->xspace;
}

Result<resources::ResourcePage> Njs::resource_page(
    const std::string& vsite) const {
  auto it = vsites_.find(vsite);
  if (it == vsites_.end())
    return util::make_error(ErrorCode::kNotFound, "no such vsite: " + vsite);
  const VsiteRuntime& runtime = *it->second;
  const batch::SystemConfig& system = runtime.config.system;

  std::int64_t max_wallclock = 0;
  std::int64_t max_memory = 0;
  for (const auto& queue : system.queues) {
    max_wallclock = std::max(max_wallclock, queue.max_wallclock_seconds);
    max_memory = std::max(max_memory, queue.max_memory_mb);
  }

  resources::ResourcePageEditor editor;
  editor.usite(usite_)
      .vsite(vsite)
      .architecture(system.architecture)
      .operating_system(system.operating_system)
      .peak_gflops(system.gflops_per_processor *
                   static_cast<double>(system.total_processors()))
      .node_count(system.nodes)
      .minimum({1, 1, 1, 0, 0})
      .maximum({system.total_processors(), max_wallclock, max_memory,
                1'048'576, 1'048'576})
      .add_software(resources::SoftwareKind::kCompiler, runtime.table.compiler_f90,
                    "F90");
  for (const auto& item : runtime.config.software)
    editor.add_software(item.kind, item.name, item.version);
  return editor.build();
}

std::vector<resources::ResourcePage> Njs::resource_pages() const {
  std::vector<resources::ResourcePage> pages;
  for (const auto& [name, runtime] : vsites_) {
    auto page = resource_page(name);
    if (page) pages.push_back(std::move(page.value()));
  }
  return pages;
}

sim::Time Njs::staging_delay(const GroupRun& group,
                             std::uint64_t bytes) const {
  double bandwidth = group.runtime != nullptr
                         ? group.runtime->config.disk_bandwidth_bytes_per_sec
                         : 20e6;
  return sim::msec(10) +
         sim::from_seconds(static_cast<double>(bytes) / bandwidth);
}

// ---- consignment -----------------------------------------------------------

Result<JobToken> Njs::consign(
    const ajo::AbstractJobObject& job, const gateway::AuthenticatedUser& user,
    const crypto::Certificate& user_certificate, FinalHandler on_final,
    uspace::StagedFiles staged_files,
    util::Bytes idempotency_key) {
  if (auto status = job.validate(); !status.ok()) return status.error();
  if (!job.usite.empty() && job.usite != usite_)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "job destined for " + job.usite +
                                " consigned to " + usite_);

  // Idempotent consign: a retried consignment (same signed-AJO digest)
  // returns the original token and re-registers the final handler —
  // without this, a retry after a lost reply would run the job twice.
  if (!idempotency_key.empty()) {
    auto key_it = consign_keys_.find(idempotency_key);
    if (key_it != consign_keys_.end()) {
      JobToken token = key_it->second;
      ++consigns_deduped_;
      if (dedupe_counter_) dedupe_counter_->increment();
      auto job_it = jobs_.find(token);
      if (job_it != jobs_.end() && on_final) {
        JobRun& existing = *job_it->second;
        if (existing.finalized) {
          ajo::Outcome outcome =
              existing.recovered_outcome.has_value()
                  ? *existing.recovered_outcome
                  : build_outcome(existing, existing.root,
                                  ajo::QueryService::Detail::kTasks);
          engine_.after(0, [token, outcome = std::move(outcome),
                            handler = std::move(on_final)] {
            handler(token, outcome);
          });
        } else {
          existing.on_final = std::move(on_final);
        }
      }
      UNICORE_INFO("njs/" + usite_)
          << "duplicate consign deduped -> job " << token;
      return token;
    }
  }

  return admit(next_token_++, job, user, user_certificate,
               std::move(on_final), std::move(staged_files),
               std::move(idempotency_key), /*journal_it=*/true);
}

Result<JobToken> Njs::admit(
    JobToken token, const ajo::AbstractJobObject& job,
    const gateway::AuthenticatedUser& user,
    const crypto::Certificate& user_certificate, FinalHandler on_final,
    uspace::StagedFiles staged_files,
    util::Bytes idempotency_key, bool journal_it) {
  auto run = std::make_unique<JobRun>();
  run->token = token;
  run->job = job;
  run->user = user;
  run->user_certificate = user_certificate;
  run->on_final = std::move(on_final);
  run->consigned_at = engine_.now();
  run->root.group = &run->job;
  run->idempotency_key = idempotency_key;

  JobRun& ref = *run;
  jobs_[token] = std::move(run);
  ++jobs_consigned_;
  if (consigned_counter_) consigned_counter_->increment();
  ref.root.span = ref.trace.begin("consign", engine_.now());
  ref.trace.annotate(ref.root.span, "job", ref.job.name());
  ref.trace.annotate(ref.root.span, "user", ref.user.login);

  // Write-ahead: the journal record lands before any action dispatches
  // (dispatch runs behind engine events, never synchronously from here).
  if (journal_it)
    if (Journal* journal = journal_for(token))
      journal->record_consigned(token, ref.job, user, user_certificate,
                                idempotency_key, staged_files, engine_.now());
  if (!idempotency_key.empty())
    consign_keys_[std::move(idempotency_key)] = token;

  if (auto status = start_group(ref, ref.root); !status.ok()) {
    if (!ref.idempotency_key.empty()) consign_keys_.erase(ref.idempotency_key);
    if (Journal* journal = journal_for(token)) journal->record_deleted(token);
    jobs_.erase(token);
    --jobs_consigned_;
    return status.error();
  }

  // Files travelling with the consignment land in the root Uspace before
  // anything dispatches (dispatch_latency_ > 0 guarantees the ordering).
  for (auto& [name, blob] : staged_files) {
    if (ref.root.workspace != nullptr)
      (void)ref.root.workspace->write(name, std::move(blob));
  }

  UNICORE_INFO("njs/" + usite_)
      << "consigned job " << token << " ('" << ref.job.name() << "') for "
      << user.login << ", " << ref.job.total_actions() << " actions";
  finalize_if_done(ref);  // degenerate empty jobs finish immediately
  return token;
}

Status Njs::start_group(JobRun& job, GroupRun& group) {
  // Resolve the destination system: a group names its own Vsite or runs
  // at its parent's.
  if (!group.group->vsite.empty()) {
    auto it = vsites_.find(group.group->vsite);
    if (it == vsites_.end())
      return util::make_error(ErrorCode::kNotFound,
                              usite_ + ": no such vsite: " +
                                  group.group->vsite);
    group.runtime = it->second.get();
  } else if (group.parent != nullptr) {
    group.runtime = group.parent->runtime;
  }

  // The UNICORE job directory for this job group (§5.5).
  std::string directory = usite_ + "/job" + std::to_string(job.token) + "/g" +
                          std::to_string(group.group->id());
  std::uint64_t quota =
      group.runtime != nullptr ? group.runtime->config.uspace_quota_bytes : 0;
  group.workspace = make_workspace(job.token, directory, quota);

  // Build the action table and the dependency counters.
  for (const auto& child : group.group->children()) {
    ActionRun run;
    run.action = child.get();
    run.outcome.action = child->id();
    run.outcome.type = child->type();
    run.outcome.name = child->name();
    group.actions.emplace(child->id(), std::move(run));
  }
  group.open_actions = static_cast<int>(group.actions.size());

  for (const ajo::Dependency& dep : group.group->dependencies()) {
    group.actions.at(dep.successor).pending_predecessors += 1;
    group.actions.at(dep.predecessor).outgoing.push_back(&dep);
  }

  // Kick off the sources of the DAG.
  for (auto& [id, run] : group.actions)
    if (run.pending_predecessors == 0) dispatch_ready(job, group, run);
  return Status::ok_status();
}

Njs::LiveAction Njs::live_action(std::uint64_t epoch, JobToken token,
                                 GroupRun* group_ptr, ActionId id) {
  if (epoch != epoch_) return {};  // NJS restarted meanwhile
  auto it = jobs_.find(token);
  if (it == jobs_.end()) return {};  // job deleted meanwhile
  auto action_it = group_ptr->actions.find(id);
  if (action_it == group_ptr->actions.end()) return {};
  ActionRun& run = action_it->second;
  if (ajo::is_terminal(run.status)) return {};
  return {it->second.get(), &run};
}

void Njs::dispatch_ready(JobRun& job, GroupRun& group, ActionRun& run) {
  if (ajo::is_terminal(run.status)) return;
  if (group.held) {
    run.status = ActionStatus::kHeld;
    run.outcome.status = ActionStatus::kHeld;
    return;
  }
  run.ready_at = engine_.now();
  // The NJS delivers actions with a processing latency; scheduling via
  // the engine also keeps dispatch non-reentrant.
  JobToken token = job.token;
  GroupRun* group_ptr = &group;
  ActionId id = run.action->id();
  engine_.after(dispatch_latency_, [this, token, group_ptr, id,
                                    epoch = epoch_] {
    LiveAction live = live_action(epoch, token, group_ptr, id);
    if (live.run == nullptr || live.run->dispatched) return;
    ActionRun& run = *live.run;
    if (group_ptr->held) {
      run.status = ActionStatus::kHeld;
      run.outcome.status = ActionStatus::kHeld;
      return;
    }
    dispatch_action(*live.job, *group_ptr, run);
  });
}

void Njs::dispatch_action(JobRun& job, GroupRun& group, ActionRun& run) {
  run.dispatched = true;
  run.outcome.submitted_at = engine_.now();
  if (dispatch_latency_hist_ && run.ready_at >= 0)
    dispatch_latency_hist_->observe(
        sim::to_seconds(engine_.now() - run.ready_at));
  // One span per action, named after its lifecycle phase; sub-jobs name
  // theirs in dispatch_subjob (local vs PeerLink hop).
  const char* phase = nullptr;
  switch (run.action->type()) {
    case ActionType::kCompileTask:
    case ActionType::kLinkTask:
    case ActionType::kUserTask:
    case ActionType::kExecuteScriptTask:
      phase = "submit";
      break;
    case ActionType::kImportTask:
      phase = "stage-in";
      break;
    case ActionType::kExportTask:
      phase = "stage-out";
      break;
    case ActionType::kTransferTask:
      phase = "transfer";
      break;
    default:
      break;
  }
  if (phase != nullptr) {
    run.span = job.trace.begin(phase, engine_.now(), group.span);
    job.trace.annotate(run.span, "action", run.action->name());
  }
  switch (run.action->type()) {
    case ActionType::kCompileTask:
    case ActionType::kLinkTask:
    case ActionType::kUserTask:
    case ActionType::kExecuteScriptTask:
      dispatch_execute(job, group, run);
      break;
    case ActionType::kImportTask:
    case ActionType::kExportTask:
    case ActionType::kTransferTask:
      dispatch_file_task(job, group, run);
      break;
    case ActionType::kAbstractJobObject:
      dispatch_subjob(job, group, run);
      break;
    default:
      complete_action(job, group, run, ActionStatus::kNotSuccessful,
                      "services cannot appear inside a job graph");
      break;
  }
}

batch::BatchSubsystem::CompletionHandler Njs::make_batch_handler(
    JobToken token, GroupRun* group_ptr, ActionId id, bool recovered) {
  return [this, token, group_ptr, id, recovered,
          epoch = epoch_](batch::BatchJobId, const batch::BatchResult& result) {
    LiveAction live = live_action(epoch, token, group_ptr, id);
    if (live.run == nullptr) return;
    ActionRun& run = *live.run;
    JobRun& job_run = *live.job;
    run.outcome.started_at = result.started_at;
    if (run.span != 0 && result.started_at >= result.submitted_at &&
        result.started_at >= 0) {
      job_run.trace.record("queue-wait", result.submitted_at,
                           result.started_at, run.span);
      if (result.finished_at >= result.started_at)
        job_run.trace.record("batch-run", result.started_at,
                             result.finished_at, run.span);
    }
    // Re-attached jobs may have been (partly) accounted before the
    // crash; skip them so a restart can never double-charge (at-most-
    // once accounting, see docs/FAULTS.md).
    if (!recovered && result.started_at >= 0 &&
        result.finished_at > result.started_at) {
      const auto& task =
          static_cast<const ajo::AbstractTaskObject&>(*run.action);
      double cpu_seconds =
          sim::to_seconds(result.finished_at - result.started_at) *
          static_cast<double>(task.resource_request().processors);
      accounting_[job_run.user.login] += cpu_seconds;
      obs::Counter*& counter = accounting_counters_[job_run.user.login];
      if (counter == nullptr)
        counter = &metrics_->counter(
            "unicore_njs_accounting_cpu_seconds_total",
            {{"usite", usite_}, {"login", job_run.user.login}});
      counter->add(cpu_seconds);
    }
    ajo::ExecuteOutcome detail;
    detail.exit_code = result.exit_code;
    detail.stdout_text = result.stdout_text;
    detail.stderr_text = result.stderr_text;
    run.outcome.detail = std::move(detail);

    ActionStatus status;
    std::string message;
    switch (result.state) {
      case batch::BatchJobState::kCompleted:
        status = result.exit_code == 0 ? ActionStatus::kSuccessful
                                       : ActionStatus::kNotSuccessful;
        if (result.exit_code != 0)
          message = "exit code " + std::to_string(result.exit_code);
        break;
      case batch::BatchJobState::kKilled:
        status = ActionStatus::kNotSuccessful;
        message = "killed at wallclock limit";
        break;
      case batch::BatchJobState::kFailed:
        status = ActionStatus::kNotSuccessful;
        message = "execution failed: " + result.stderr_text;
        break;
      case batch::BatchJobState::kCancelled:
        status = ActionStatus::kAborted;
        message = "cancelled";
        break;
      default:
        status = ActionStatus::kNotSuccessful;
        message = "unexpected batch state";
        break;
    }
    complete_action(job_run, *group_ptr, run, status, std::move(message));
  };
}

void Njs::dispatch_execute(JobRun& job, GroupRun& group, ActionRun& run) {
  if (group.runtime == nullptr) {
    complete_action(job, group, run, ActionStatus::kNotSuccessful,
                    "no destination system for task");
    return;
  }

  // Crash recovery: the journal says this action already reached a batch
  // queue — re-attach to that submission instead of duplicating it.
  auto rec = recovered_batch_.find({job.token, action_path(group,
                                                          run.action->id())});
  if (rec != recovered_batch_.end()) {
    batch::BatchJobId batch_id = rec->second;
    recovered_batch_.erase(rec);
    auto reattached = group.runtime->subsystem->reattach(
        batch_id,
        make_batch_handler(job.token, &group, run.action->id(),
                           /*recovered=*/true));
    if (reattached.ok()) {
      run.batch_id = batch_id;
      run.recovered = true;
      run.status = ActionStatus::kQueued;
      run.outcome.status = ActionStatus::kQueued;
      if (reattach_counter_) reattach_counter_->increment();
      job.trace.record("batch-reattach", engine_.now(), engine_.now(),
                       run.span);
      return;
    }
    // The batch job vanished (e.g. the subsystem itself was reset):
    // fall through to a fresh submission.
  }

  dispatch_execute_attempt(job, group, run, 1);
}

void Njs::dispatch_execute_attempt(JobRun& job, GroupRun& group,
                                   ActionRun& run, int attempt) {
  // A dead Vsite fails fast instead of wedging the graph behind full
  // backoff ladders for every action.
  if (!group.runtime->breaker.allow(engine_.now())) {
    complete_action(job, group, run, ActionStatus::kNotSuccessful,
                    "vsite circuit open: " +
                        group.runtime->config.system.vsite);
    return;
  }
  const auto& task = static_cast<const ajo::AbstractTaskObject&>(*run.action);
  auto incarnated = incarnate(task, group.runtime->config.system,
                              group.runtime->table, job.job.account_group);
  if (!incarnated) {
    complete_action(job, group, run, ActionStatus::kNotSuccessful,
                    incarnated.error().message);
    return;
  }
  incarnated.value().spec.workspace = group.workspace;
  job.trace.record("incarnate", engine_.now(), engine_.now(), run.span);

  JobToken token = job.token;
  GroupRun* group_ptr = &group;
  ActionId id = run.action->id();
  auto submitted = group.runtime->subsystem->submit(
      incarnated.value().script, job.user.login,
      std::move(incarnated.value().spec),
      make_batch_handler(token, group_ptr, id, /*recovered=*/false));
  if (!submitted) {
    if (submitted.error().code == ErrorCode::kUnavailable)
      group.runtime->breaker.record_failure(engine_.now());
    if (util::is_retryable(submitted.error().code) &&
        attempt < batch_backoff_.max_attempts) {
      ++batch_retries_;
      if (batch_retry_counter_) batch_retry_counter_->increment();
      job.trace.record("batch-retry", engine_.now(), engine_.now(), run.span);
      sim::Time delay = backoff_delay_us(batch_backoff_, attempt, rng_);
      engine_.after(delay, [this, token, group_ptr, id, attempt,
                            epoch = epoch_] {
        LiveAction live = live_action(epoch, token, group_ptr, id);
        if (live.run == nullptr) return;
        dispatch_execute_attempt(*live.job, *group_ptr, *live.run, attempt + 1);
      });
      return;
    }
    complete_action(job, group, run, ActionStatus::kNotSuccessful,
                    submitted.error().message);
    return;
  }
  group.runtime->breaker.record_success();
  run.batch_id = submitted.value();
  run.status = ActionStatus::kQueued;
  run.outcome.status = ActionStatus::kQueued;
  if (Journal* journal = journal_for(token))
    journal->record_batch_submitted(token,
                                    action_path(group, run.action->id()),
                                    run.batch_id);
}

void Njs::dispatch_file_task(JobRun& job, GroupRun& group, ActionRun& run) {
  JobToken token = job.token;
  GroupRun* group_ptr = &group;
  ActionId id = run.action->id();
  run.status = ActionStatus::kRunning;
  run.outcome.status = ActionStatus::kRunning;
  run.outcome.started_at = engine_.now();

  auto finish = [this, token, group_ptr, id,
                 epoch = epoch_](ActionStatus status, std::string message,
                                 ajo::FileOutcome detail) {
    LiveAction live = live_action(epoch, token, group_ptr, id);
    if (live.run == nullptr) return;
    live.run->outcome.detail = std::move(detail);
    complete_action(*live.job, *group_ptr, *live.run, status,
                    std::move(message));
  };

  switch (run.action->type()) {
    case ActionType::kImportTask: {
      const auto& import = static_cast<const ajo::ImportTask&>(*run.action);
      uspace::FileBlob blob;
      if (import.source == ajo::ImportTask::Source::kUserWorkstation) {
        blob = uspace::FileBlob::from_bytes(import.inline_content);
      } else {
        if (group.runtime == nullptr)
          return finish(ActionStatus::kNotSuccessful,
                        "no Xspace available for import", {});
        const uspace::Volume* volume =
            group.runtime->xspace.find_volume(import.xspace_source.volume);
        if (volume == nullptr)
          return finish(ActionStatus::kNotSuccessful,
                        "no such volume: " + import.xspace_source.volume, {});
        auto read = volume->read(import.xspace_source.path);
        if (!read)
          return finish(ActionStatus::kNotSuccessful, read.error().message,
                        {});
        blob = std::move(read.value());
      }
      std::uint64_t bytes = blob.size();
      std::string name = import.uspace_name;
      // Capture the workspace by shared_ptr: the GroupRun may be gone
      // (job deleted, NJS restarted) by the time the write lands.
      engine_.after(staging_delay(group, bytes),
                    [workspace = group.workspace, finish, name,
                     blob = std::move(blob), bytes]() mutable {
                      auto status = workspace->write(
                          name, std::move(blob));
                      if (!status.ok())
                        finish(ActionStatus::kNotSuccessful,
                               status.error().message, {});
                      else
                        finish(ActionStatus::kSuccessful, "",
                               {{name}, bytes});
                    });
      return;
    }
    case ActionType::kExportTask: {
      const auto& export_task =
          static_cast<const ajo::ExportTask&>(*run.action);
      auto read = group.workspace->read(export_task.uspace_name);
      if (!read)
        return finish(ActionStatus::kNotSuccessful, read.error().message, {});
      if (group.runtime == nullptr)
        return finish(ActionStatus::kNotSuccessful,
                      "no Xspace available for export", {});
      uspace::Volume* volume =
          group.runtime->xspace.find_volume(export_task.destination.volume);
      if (volume == nullptr)
        return finish(ActionStatus::kNotSuccessful,
                      "no such volume: " + export_task.destination.volume,
                      {});
      std::uint64_t bytes = read.value().size();
      std::string path = export_task.destination.path;
      engine_.after(staging_delay(group, bytes),
                    [finish, volume, path, blob = std::move(read.value()),
                     bytes]() mutable {
                      auto status = volume->write(path, std::move(blob));
                      if (!status.ok())
                        finish(ActionStatus::kNotSuccessful,
                               status.error().message, {});
                      else
                        finish(ActionStatus::kSuccessful, "",
                               {{path}, bytes});
                    });
      return;
    }
    case ActionType::kTransferTask: {
      const auto& transfer =
          static_cast<const ajo::TransferTask&>(*run.action);
      // Shared read: the blob may sit in this workspace, the target
      // workspace, and a chunked transfer's flight window at once —
      // one allocation serves all of them.
      auto read = group.workspace->read_shared(transfer.uspace_name);
      if (!read)
        return finish(ActionStatus::kNotSuccessful, read.error().message, {});
      std::shared_ptr<const uspace::FileBlob> blob = std::move(read.value());
      std::uint64_t bytes = blob->size();
      std::string target_name = transfer.rename_to.empty()
                                    ? transfer.uspace_name
                                    : transfer.rename_to;
      auto target_it = group.actions.find(transfer.target_job);
      if (target_it == group.actions.end())
        return finish(ActionStatus::kNotSuccessful,
                      "transfer target not found", {});
      ActionRun& target = target_it->second;
      if (ajo::is_terminal(target.status))
        return finish(ActionStatus::kNotSuccessful,
                      "transfer target already finished", {});

      if (target.subgroup != nullptr) {
        // Local sub-job, already running: a local Uspace-to-Uspace copy.
        auto workspace = target.subgroup->workspace;
        engine_.after(staging_delay(group, bytes),
                      [finish, workspace, target_name, blob = std::move(blob),
                       bytes]() mutable {
                        auto status = workspace->write_shared(target_name,
                                                              std::move(blob));
                        if (!status.ok())
                          finish(ActionStatus::kNotSuccessful,
                                 status.error().message, {});
                        else
                          finish(ActionStatus::kSuccessful, "",
                                 {{target_name}, bytes});
                      });
      } else if (target.remote.has_value()) {
        // Remote sub-job: NJS–NJS transfer via the gateways (§5.6).
        if (peer_link_ == nullptr)
          return finish(ActionStatus::kNotSuccessful,
                        "no peer link configured", {});
        peer_link_->deliver_file(
            *target.remote, target_name, std::move(blob),
            [finish, target_name, bytes](Status status) {
              if (!status.ok())
                finish(ActionStatus::kNotSuccessful, status.error().message,
                       {});
              else
                finish(ActionStatus::kSuccessful, "", {{target_name}, bytes});
            });
      } else {
        // Sub-job not dispatched yet: stage the file; it travels with the
        // sub-job's consignment (by value: it crosses the wire there).
        target.staged_files[target_name] = *blob;
        finish(ActionStatus::kSuccessful, "staged for sub-job dispatch",
               {{target_name}, bytes});
      }
      return;
    }
    default:
      finish(ActionStatus::kNotSuccessful, "not a file task", {});
  }
}

void Njs::dispatch_subjob(JobRun& job, GroupRun& group, ActionRun& run) {
  auto& sub = static_cast<ajo::AbstractJobObject&>(*run.action);
  bool remote = !sub.usite.empty() && sub.usite != usite_;

  run.span = job.trace.begin(remote ? "peer-consign" : "subjob", engine_.now(),
                             group.span);
  job.trace.annotate(run.span, "action", run.action->name());
  if (remote) job.trace.annotate(run.span, "usite", sub.usite);

  // Collect the dependency files that must accompany the sub-job.
  uspace::StagedFiles staged;
  for (const ajo::Dependency& dep : group.group->dependencies()) {
    if (dep.successor != run.action->id()) continue;
    for (const std::string& file : dep.files) {
      auto blob = group.workspace->read(file);
      if (!blob) {
        complete_action(job, group, run, ActionStatus::kNotSuccessful,
                        "dependency file missing: " + file);
        return;
      }
      staged.emplace_back(file, std::move(blob.value()));
    }
  }
  for (auto& [name, blob] : run.staged_files)
    staged.emplace_back(name, std::move(blob));
  run.staged_files.clear();

  if (!remote) {
    run.subgroup = std::make_unique<GroupRun>();
    run.subgroup->group = &sub;
    run.subgroup->parent = &group;
    run.subgroup->owner = &run;
    run.subgroup->span = run.span;
    run.status = ActionStatus::kRunning;
    run.outcome.status = ActionStatus::kRunning;
    run.outcome.started_at = engine_.now();
    if (auto status = start_group(job, *run.subgroup); !status.ok()) {
      complete_action(job, group, run, ActionStatus::kNotSuccessful,
                      status.error().message);
      return;
    }
    for (auto& [name, blob] : staged)
      (void)run.subgroup->workspace->write(name, std::move(blob));
    // An empty sub-job is immediately successful.
    if (run.subgroup->open_actions == 0 && !ajo::is_terminal(run.status))
      complete_action(job, group, run, ActionStatus::kSuccessful, "");
    return;
  }

  // Remote: endorse and consign to the peer Usite.
  if (peer_link_ == nullptr) {
    complete_action(job, group, run, ActionStatus::kNotSuccessful,
                    "no peer link to reach " + sub.usite);
    return;
  }
  ForwardedConsignment consignment;
  consignment.job = sub;
  consignment.user_certificate = job.user_certificate;
  consignment.consignor_certificate = credential_.certificate;
  consignment.signature = crypto::sign_message(
      credential_.key,
      ForwardedConsignment::signing_input(consignment.job,
                                          consignment.user_certificate));
  consignment.staged_files = std::move(staged);

  run.status = ActionStatus::kConsigned;
  run.outcome.status = ActionStatus::kConsigned;

  JobToken token = job.token;
  GroupRun* group_ptr = &group;
  ActionId id = run.action->id();
  peer_link_->consign(
      sub.usite, consignment,
      [this, token, group_ptr, id, epoch = epoch_](
          Result<RemoteJobHandle> handle) {
        LiveAction live = live_action(epoch, token, group_ptr, id);
        if (live.run == nullptr) return;
        ActionRun& run = *live.run;
        if (!handle) {
          complete_action(*live.job, *group_ptr, run,
                          ActionStatus::kNotSuccessful,
                          "remote consignment rejected: " +
                              handle.error().message);
          return;
        }
        run.remote = handle.value();
        run.outcome.started_at = engine_.now();
        live.job->trace.record("remote-accept", engine_.now(), engine_.now(),
                               run.span);
      },
      [this, token, group_ptr, id, epoch = epoch_](ajo::Outcome outcome) {
        LiveAction live = live_action(epoch, token, group_ptr, id);
        if (live.run == nullptr) return;
        live.run->outcome.children = std::move(outcome.children);
        complete_action(*live.job, *group_ptr, *live.run, outcome.status,
                        std::move(outcome.message));
      });
}

void Njs::complete_action(JobRun& job, GroupRun& group, ActionRun& run,
                          ActionStatus status, std::string message) {
  if (ajo::is_terminal(run.status)) return;
  run.status = status;
  run.outcome.status = status;
  run.outcome.message = std::move(message);
  run.outcome.finished_at = engine_.now();
  if (run.span != 0) {
    job.trace.annotate(run.span, "status", ajo::action_status_name(status));
    job.trace.end(run.span, engine_.now());
  }
  if (Journal* journal = journal_for(job.token))
    journal->record_action_state(job.token,
                                 action_path(group, run.outcome.action),
                                 status);
  --group.open_actions;

  if (status == ActionStatus::kSuccessful)
    process_edges(job, group, run);
  else
    propagate_failure(job, group, run);

  if (group.open_actions == 0) {
    // The whole group finished: report it as its owner's result.
    ActionStatus aggregate = aggregate_status(group);
    if (group.owner != nullptr) {
      GroupRun& parent = *group.parent;
      if (!ajo::is_terminal(group.owner->status))
        complete_action(job, parent, *group.owner, aggregate,
                        aggregate == ActionStatus::kSuccessful
                            ? ""
                            : "job group had unsuccessful actions");
    } else {
      finalize_if_done(job);
    }
  }
}

void Njs::propagate_failure(JobRun& job, GroupRun& group, ActionRun& failed) {
  for (const ajo::Dependency* dep : failed.outgoing) {
    auto it = group.actions.find(dep->successor);
    if (it == group.actions.end()) continue;
    ActionRun& successor = it->second;
    if (ajo::is_terminal(successor.status)) continue;
    complete_action(job, group, successor, ActionStatus::kNeverRun,
                    "predecessor " + std::to_string(failed.action->id()) +
                        " did not succeed");
  }
}

void Njs::process_edges(JobRun& job, GroupRun& group, ActionRun& completed) {
  for (const ajo::Dependency* dep : completed.outgoing) {
    if (!group.actions.count(dep->successor)) continue;
    JobToken token = job.token;
    GroupRun* group_ptr = &group;
    ActionId successor_id = dep->successor;

    auto on_staged = [this, token, group_ptr, successor_id,
                      epoch = epoch_](Status status) {
      LiveAction live = live_action(epoch, token, group_ptr, successor_id);
      if (live.run == nullptr) return;
      ActionRun& successor = *live.run;
      if (!status.ok()) {
        complete_action(*live.job, *group_ptr, successor,
                        ActionStatus::kNotSuccessful,
                        "dependency data unavailable: " +
                            status.error().message);
        return;
      }
      if (--successor.pending_predecessors == 0)
        dispatch_ready(*live.job, *group_ptr, successor);
    };

    stage_edge_files_async(job, group, completed, dep->files, on_staged);
  }
}

// Materialises the dependency files produced by `predecessor` into the
// group workspace ("UNICORE then guarantees that the specified data sets
// created by the predecessor are available to the successor", §5.7).
void Njs::stage_edge_files_async(JobRun& job, GroupRun& group,
                                 ActionRun& predecessor,
                                 const std::vector<std::string>& files,
                                 std::function<void(Status)> done) {
  if (files.empty()) {
    done(Status::ok_status());
    return;
  }

  // Case 1: predecessor was a task of this group — its outputs are
  // already in the group workspace; verify they exist.
  if (!predecessor.action->is_job()) {
    for (const std::string& file : files) {
      if (!group.workspace->exists(file)) {
        done(util::make_error(ErrorCode::kNotFound,
                              "declared dependency file missing: " + file));
        return;
      }
    }
    done(Status::ok_status());
    return;
  }

  // Case 2: predecessor was a local sub-job — share from its Uspace
  // (blobs are immutable; no byte copy).
  if (predecessor.subgroup != nullptr) {
    for (const std::string& file : files) {
      auto blob = predecessor.subgroup->workspace->read_shared(file);
      if (!blob) {
        done(util::make_error(ErrorCode::kNotFound,
                              "sub-job did not produce file: " + file));
        return;
      }
      if (auto status =
              group.workspace->write_shared(file, std::move(blob.value()));
          !status.ok()) {
        done(status);
        return;
      }
    }
    done(Status::ok_status());
    return;
  }

  // Case 3: predecessor ran at a remote Usite — fetch the files over the
  // NJS–NJS link.
  if (!predecessor.remote.has_value() || peer_link_ == nullptr) {
    done(util::make_error(ErrorCode::kUnavailable,
                          "remote sub-job handle unavailable"));
    return;
  }
  auto handle = *predecessor.remote;
  JobToken token = job.token;
  GroupRun* group_ptr = &group;

  // One fetch_files call for the whole dependency set: the server's
  // peer link answers it with one manifest round trip (docs/DATA.md §3).
  peer_link_->fetch_files(
      handle, files,
      [this, token, group_ptr, names = files, done, epoch = epoch_](
          Result<std::vector<uspace::FileBlob>> blobs) {
        if (epoch != epoch_) return;
        auto it = jobs_.find(token);
        if (it == jobs_.end()) return;
        if (!blobs) {
          done(util::make_error(ErrorCode::kNotFound,
                                "remote dependency files unavailable: " +
                                    blobs.error().message));
          return;
        }
        if (blobs.value().size() != names.size()) {
          done(util::make_error(ErrorCode::kInternal,
                                "dependency fetch returned " +
                                    std::to_string(blobs.value().size()) +
                                    " files, expected " +
                                    std::to_string(names.size())));
          return;
        }
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (auto status = group_ptr->workspace->write(
                  names[i], std::move(blobs.value()[i]));
              !status.ok()) {
            done(status);
            return;
          }
        }
        done(Status::ok_status());
      });
}

void Njs::finalize_if_done(JobRun& job) {
  if (job.finalized) return;
  if (job.root.open_actions != 0) return;
  job.finalized = true;
  ++jobs_completed_;
  if (completed_counter_) completed_counter_->increment();
  if (job_duration_hist_)
    job_duration_hist_->observe(
        sim::to_seconds(engine_.now() - job.consigned_at));
  ActionStatus aggregate = aggregate_status(job.root);
  if (job.root.span != 0) {
    job.trace.record("outcome", engine_.now(), engine_.now(), job.root.span);
    job.trace.annotate(job.root.span, "status",
                       ajo::action_status_name(aggregate));
    job.trace.end(job.root.span, engine_.now());
  }
  UNICORE_INFO("njs/" + usite_)
      << "job " << job.token << " finished: "
      << ajo::action_status_name(aggregate);
  if (Journal* journal = journal_for(job.token))
    journal->record_finalized(
        job.token,
        build_outcome(job, job.root, ajo::QueryService::Detail::kTasks));
  if (job.on_final) {
    auto outcome = build_outcome(job, job.root,
                                 ajo::QueryService::Detail::kTasks);
    auto handler = std::move(job.on_final);
    job.on_final = nullptr;
    handler(job.token, outcome);
  }
  // With a storage policy set, a finishing job may tip the combined
  // terminal-storage bytes over the line; the oldest storages go first,
  // so this job's own outputs survive as long as the quota allows.
  clean_job_storages();
}

ajo::ActionStatus Njs::aggregate_status(const GroupRun& group) const {
  bool all_terminal = true;
  bool any_active = false;
  bool any_failed = false;
  bool any_aborted = false;
  for (const auto& [id, run] : group.actions) {
    if (!ajo::is_terminal(run.status)) {
      all_terminal = false;
      if (run.status == ActionStatus::kQueued ||
          run.status == ActionStatus::kRunning ||
          run.status == ActionStatus::kConsigned)
        any_active = true;
    }
    if (run.status == ActionStatus::kNotSuccessful ||
        run.status == ActionStatus::kNeverRun)
      any_failed = true;
    if (run.status == ActionStatus::kAborted) any_aborted = true;
  }
  if (!all_terminal) return any_active ? ActionStatus::kRunning
                                       : ActionStatus::kPending;
  if (any_aborted) return ActionStatus::kAborted;
  if (any_failed) return ActionStatus::kNotSuccessful;
  return ActionStatus::kSuccessful;
}

ajo::Outcome Njs::build_outcome(const JobRun& job, const GroupRun& group,
                                ajo::QueryService::Detail detail) const {
  ajo::Outcome node;
  node.action = group.group->id();
  node.type = ActionType::kAbstractJobObject;
  node.name = group.group->name();
  node.status = aggregate_status(group);
  node.submitted_at = job.consigned_at;

  if (detail == ajo::QueryService::Detail::kSummary) return node;

  for (const auto& child : group.group->children()) {
    const ActionRun& run = group.actions.at(child->id());
    if (run.subgroup != nullptr) {
      ajo::Outcome sub = build_outcome(job, *run.subgroup, detail);
      sub.action = child->id();
      sub.name = child->name();
      // While the sub-group runs, show the live aggregate; once its
      // owner action is terminal, prefer the recorded result.
      if (ajo::is_terminal(run.status)) {
        sub.status = run.status;
        sub.message = run.outcome.message;
        sub.finished_at = run.outcome.finished_at;
      }
      node.children.push_back(std::move(sub));
      continue;
    }
    if (child->is_job()) {
      // Remote sub-job: one node carrying the remote outcome subtree.
      ajo::Outcome sub = run.outcome;
      if (detail == ajo::QueryService::Detail::kJobGroups)
        sub.children.clear();
      node.children.push_back(std::move(sub));
      continue;
    }
    if (detail == ajo::QueryService::Detail::kJobGroups) continue;
    ajo::Outcome leaf = run.outcome;
    // Map QUEUED to RUNNING live when the batch system started the job.
    if (run.status == ActionStatus::kQueued && group.runtime != nullptr) {
      auto state = group.runtime->subsystem->state(run.batch_id);
      if (state && state.value() == batch::BatchJobState::kRunning)
        leaf.status = ActionStatus::kRunning;
    }
    node.children.push_back(std::move(leaf));
  }
  return node;
}

// ---- crash recovery --------------------------------------------------------

void Njs::set_journal(std::shared_ptr<Journal> journal) {
  journal_ = std::move(journal);
}

void Njs::set_token_partition(std::uint64_t partition) {
  partition_ = partition;
  next_token_ = std::max(next_token_, token_partition_base(partition) + 1);
}

Journal* Njs::journal_for(ajo::JobToken token) const {
  if (adopted_journals_.empty()) return journal_.get();
  auto it = adopted_journals_.find(njs::token_partition(token));
  if (it != adopted_journals_.end()) return it->second.get();
  return journal_.get();
}

std::vector<Journal*> Njs::all_journals() const {
  std::vector<Journal*> out;
  if (journal_ != nullptr) out.push_back(journal_.get());
  for (const auto& [partition, journal] : adopted_journals_)
    if (journal != nullptr) out.push_back(journal.get());
  return out;
}

std::optional<ajo::JobToken> Njs::consign_key_lookup(
    const util::Bytes& key) const {
  auto it = consign_keys_.find(key);
  if (it == consign_keys_.end()) return std::nullopt;
  return it->second;
}

std::shared_ptr<uspace::Uspace> Njs::make_workspace(
    ajo::JobToken token, const std::string& directory,
    std::uint64_t quota_bytes) {
  if (Journal* journal = journal_for(token))
    return journal->workspace(directory, quota_bytes);
  return std::make_shared<uspace::Uspace>(directory, quota_bytes);
}

std::string Njs::action_path(const GroupRun& group, ActionId id) {
  std::vector<const GroupRun*> chain;
  for (const GroupRun* g = &group; g != nullptr; g = g->parent)
    chain.push_back(g);
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it)
    path += "g" + std::to_string((*it)->group->id()) + "/";
  path += "a" + std::to_string(id);
  return path;
}

void Njs::crash() {
  // The NJS process dies: every in-memory JobRun, dedupe key, and
  // pending callback is gone. Bumping the epoch invalidates callbacks
  // already queued inside the engine or held by the batch subsystems.
  ++epoch_;
  jobs_.clear();
  consign_keys_.clear();
  recovered_batch_.clear();
  for (CrashParticipant* participant : crash_participants_)
    participant->on_njs_crash();
  UNICORE_INFO("njs/" + usite_) << "simulated crash (epoch " << epoch_ << ")";
}

std::size_t Njs::replay_journal(Journal& journal, bool own_partition) {
  std::size_t recovered = 0;
  for (auto& image : journal.recover()) {
    if (own_partition) next_token_ = std::max(next_token_, image.token + 1);
    if (jobs_.count(image.token) != 0) continue;  // already live

    if (image.outcome.has_value()) {
      // Terminal before the crash: restore the record, not the run
      // tree, so queries and output reads keep working.
      auto run = std::make_unique<JobRun>();
      run->token = image.token;
      run->job = std::move(image.job);
      run->user = std::move(image.user);
      run->user_certificate = std::move(image.user_certificate);
      run->consigned_at = image.consigned_at;
      run->finalized = true;
      run->idempotency_key = image.idempotency_key;
      run->recovered_outcome = std::move(*image.outcome);
      run->root.group = &run->job;
      std::string directory = usite_ + "/job" + std::to_string(run->token) +
                              "/g" + std::to_string(run->job.id());
      std::uint64_t quota = 0;
      if (auto it = vsites_.find(run->job.vsite); it != vsites_.end())
        quota = it->second->config.uspace_quota_bytes;
      run->root.workspace = make_workspace(run->token, directory, quota);
      if (!image.idempotency_key.empty())
        consign_keys_[image.idempotency_key] = image.token;
      jobs_[image.token] = std::move(run);
      ++recovered;
      continue;
    }

    // Still live at the crash: re-admit through the normal dispatch
    // path. Actions whose batch submissions are journaled re-attach in
    // dispatch_execute; everything else replays idempotently against
    // the durable workspaces.
    for (auto& [path, batch_id] : image.batch_ids)
      recovered_batch_[{image.token, path}] = batch_id;
    auto admitted =
        admit(image.token, image.job, image.user, image.user_certificate,
              nullptr, std::move(image.staged_files), image.idempotency_key,
              /*journal_it=*/false);
    if (!admitted) {
      UNICORE_WARN("njs/" + usite_)
          << "recovery of job " << image.token
          << " failed: " << admitted.error().message;
      continue;
    }
    auto it = jobs_.find(image.token);
    if (it != jobs_.end()) {
      it->second->consigned_at = image.consigned_at;
      it->second->trace.annotate(it->second->root.span, "recovered", "true");
    }
    ++recovered;
  }
  return recovered;
}

Result<std::size_t> Njs::recover() {
  if (journal_ == nullptr)
    return util::make_error(ErrorCode::kFailedPrecondition,
                            "no journal attached");
  std::size_t recovered = replay_journal(*journal_, /*own_partition=*/true);
  // Partitions adopted before the crash come back too — their journals
  // are this replica's responsibility now.
  for (auto& [partition, journal] : adopted_journals_)
    recovered += replay_journal(*journal, /*own_partition=*/false);
  recoveries_ += recovered;
  if (recoveries_counter_ && recovered > 0)
    recoveries_counter_->add(static_cast<double>(recovered));
  // Jobs are back; now let co-resident subsystems (the transfer engine)
  // fold their own journal records against them.
  for (CrashParticipant* participant : crash_participants_)
    participant->on_njs_recover();
  UNICORE_INFO("njs/" + usite_)
      << "recovered " << recovered << " job(s) from " << journal_->records()
      << " journal record(s)";
  return recovered;
}

Result<std::size_t> Njs::adopt(std::uint64_t partition,
                               std::shared_ptr<Journal> journal) {
  if (journal == nullptr)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "adopt: no journal given");
  if (partition == partition_)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "adopt: partition " + std::to_string(partition) +
                                " is this replica's own");
  auto [it, inserted] = adopted_journals_.emplace(partition, journal);
  if (!inserted)
    return util::make_error(ErrorCode::kFailedPrecondition,
                            "partition " + std::to_string(partition) +
                                " already adopted here");
  std::size_t adopted = replay_journal(*journal, /*own_partition=*/false);
  ++adoptions_;
  for (CrashParticipant* participant : crash_participants_)
    participant->on_njs_adopt(*journal);
  UNICORE_INFO("njs/" + usite_)
      << "adopted partition " << partition << ": " << adopted
      << " job(s) from " << journal->records() << " journal record(s)";
  return adopted;
}

// ---- public services -------------------------------------------------------

Result<ajo::Outcome> Njs::query(JobToken token,
                                ajo::QueryService::Detail detail) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  if (it->second->recovered_outcome.has_value()) {
    ajo::Outcome outcome = *it->second->recovered_outcome;
    if (detail == ajo::QueryService::Detail::kSummary) outcome.children.clear();
    return outcome;
  }
  return build_outcome(*it->second, it->second->root, detail);
}

Result<crypto::DistinguishedName> Njs::owner(JobToken token) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  return it->second->user.dn;
}

void JobSummary::encode(util::ByteWriter& w) const {
  w.u64(token);
  w.str(name);
  w.u8(static_cast<std::uint8_t>(status));
  w.i64(consigned_at);
}

JobSummary JobSummary::decode(util::ByteReader& r) {
  JobSummary summary;
  summary.token = r.u64();
  summary.name = r.str();
  summary.status = static_cast<ajo::ActionStatus>(r.u8());
  summary.consigned_at = r.i64();
  return summary;
}

std::vector<JobSummary> Njs::list(
    const crypto::DistinguishedName& user) const {
  std::vector<JobSummary> out;
  for (const auto& [token, job] : jobs_) {
    if (job->user.dn != user) continue;
    JobSummary summary;
    summary.token = token;
    summary.name = job->job.name();
    summary.status = job->recovered_outcome.has_value()
                         ? job->recovered_outcome->status
                         : aggregate_status(job->root);
    summary.consigned_at = job->consigned_at;
    out.push_back(std::move(summary));
  }
  return out;
}

void Njs::abort_group(JobRun& job, GroupRun& group) {
  // Take a snapshot of ids: complete_action mutates the counters and can
  // cascade into parents.
  std::vector<ActionId> ids;
  ids.reserve(group.actions.size());
  for (const auto& [id, run] : group.actions) ids.push_back(id);
  for (ActionId id : ids) {
    ActionRun& run = group.actions.at(id);
    if (ajo::is_terminal(run.status)) continue;
    switch (run.status) {
      case ActionStatus::kQueued:
      case ActionStatus::kRunning:
        if (run.batch_id != 0 && group.runtime != nullptr) {
          // Cancellation completes the action through the batch handler.
          (void)group.runtime->subsystem->cancel(run.batch_id);
          break;
        }
        if (run.subgroup != nullptr) {
          abort_group(job, *run.subgroup);
          break;
        }
        complete_action(job, group, run, ActionStatus::kAborted, "aborted");
        break;
      case ActionStatus::kConsigned:
        if (run.remote.has_value() && peer_link_ != nullptr)
          peer_link_->control(*run.remote,
                              ajo::ControlService::Command::kAbort,
                              [](Status) {});
        complete_action(job, group, run, ActionStatus::kAborted, "aborted");
        break;
      default:
        complete_action(job, group, run, ActionStatus::kAborted, "aborted");
        break;
    }
  }
}

void Njs::set_held(GroupRun& group, bool held) {
  group.held = held;
  for (auto& [id, run] : group.actions)
    if (run.subgroup != nullptr) set_held(*run.subgroup, held);
}

Status Njs::control(JobToken token, ajo::ControlService::Command command) {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  JobRun& job = *it->second;
  switch (command) {
    case ajo::ControlService::Command::kAbort:
      abort_group(job, job.root);
      return Status::ok_status();
    case ajo::ControlService::Command::kHold:
      set_held(job.root, true);
      return Status::ok_status();
    case ajo::ControlService::Command::kRelease: {
      set_held(job.root, false);
      // Re-dispatch everything parked in HELD.
      std::function<void(GroupRun&)> release = [&](GroupRun& group) {
        for (auto& [id, run] : group.actions) {
          if (run.status == ActionStatus::kHeld) {
            run.status = ActionStatus::kPending;
            run.outcome.status = ActionStatus::kPending;
            dispatch_ready(job, group, run);
          }
          if (run.subgroup != nullptr) release(*run.subgroup);
        }
      };
      release(job.root);
      return Status::ok_status();
    }
    case ajo::ControlService::Command::kDelete: {
      ajo::ActionStatus status =
          job.recovered_outcome.has_value()
              ? job.recovered_outcome->status
              : build_outcome(job, job.root,
                              ajo::QueryService::Detail::kSummary)
                    .status;
      if (!ajo::is_terminal(status))
        return util::make_error(ErrorCode::kFailedPrecondition,
                                "job still active; abort it first");
      if (!job.idempotency_key.empty())
        consign_keys_.erase(job.idempotency_key);
      if (Journal* journal = journal_for(token)) journal->record_deleted(token);
      jobs_.erase(it);
      return Status::ok_status();
    }
  }
  return util::make_error(ErrorCode::kInvalidArgument, "unknown command");
}

Status Njs::deliver_file(JobToken token, const std::string& name,
                         uspace::FileBlob blob) {
  return deliver_file(token, name,
                      std::make_shared<const uspace::FileBlob>(std::move(blob)));
}

Status Njs::deliver_file(JobToken token, const std::string& name,
                         std::shared_ptr<const uspace::FileBlob> blob) {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  // Store-backed sites intern inbound files: identical content across
  // files and jobs is held once (the chunked transfer path arrives
  // already interned; this covers whole-blob deliveries).
  if (chunk_store_ != nullptr)
    blob = uspace::intern_blob(chunk_store_, std::move(blob));
  return it->second->root.workspace->write_shared(name, std::move(blob));
}

Result<uspace::FileBlob> Njs::fetch_file(JobToken token,
                                         const std::string& name) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  return it->second->root.workspace->read(name);
}

Result<std::shared_ptr<const uspace::FileBlob>> Njs::fetch_file_shared(
    JobToken token, const std::string& name) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  return it->second->root.workspace->read_shared(name);
}

Result<uspace::FileBlob> Njs::read_output(JobToken token,
                                          const std::string& name) const {
  return fetch_file(token, name);
}

Result<std::shared_ptr<const uspace::FileBlob>> Njs::read_output_shared(
    JobToken token, const std::string& name) const {
  return fetch_file_shared(token, name);
}

// ---- managed job storages ---------------------------------------------------

void Njs::visit_workspaces(
    const GroupRun& group, const std::string& prefix,
    const std::function<void(const std::string&, uspace::Uspace&)>& visit) {
  if (group.workspace != nullptr) visit(prefix, *group.workspace);
  for (const auto& [id, run] : group.actions) {
    if (run.subgroup == nullptr) continue;
    visit_workspaces(
        *run.subgroup,
        prefix + "g" + std::to_string(run.subgroup->group->id()) + "/",
        visit);
  }
}

void StorageInfo::encode(util::ByteWriter& w) const {
  w.u64(token);
  w.str(name);
  w.u64(used_bytes);
  w.u64(quota_bytes);
  w.varint(files);
  w.boolean(terminal);
  w.boolean(reaped);
  w.i64(consigned_at);
}

StorageInfo StorageInfo::decode(util::ByteReader& r) {
  StorageInfo info;
  info.token = r.u64();
  info.name = r.str();
  info.used_bytes = r.u64();
  info.quota_bytes = r.u64();
  info.files = r.varint();
  info.terminal = r.boolean();
  info.reaped = r.boolean();
  info.consigned_at = r.i64();
  return info;
}

StorageInfo Njs::make_storage_info(const JobRun& job) const {
  StorageInfo info;
  info.token = job.token;
  info.name = "job" + std::to_string(job.token);
  info.terminal = job.finalized;
  info.reaped = job.storage_reaped;
  info.consigned_at = job.consigned_at;
  visit_workspaces(job.root, "",
                   [&info](const std::string&, uspace::Uspace& workspace) {
                     info.used_bytes += workspace.used_bytes();
                     info.files += workspace.list().size();
                   });
  if (job.root.workspace != nullptr)
    info.quota_bytes = job.root.workspace->quota_bytes();
  return info;
}

std::vector<StorageInfo> Njs::storages(
    const crypto::DistinguishedName& user) const {
  std::vector<StorageInfo> out;
  for (const auto& [token, job] : jobs_) {
    if (job->user.dn != user) continue;
    out.push_back(make_storage_info(*job));
  }
  return out;
}

Result<StorageInfo> Njs::storage_info(JobToken token) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  return make_storage_info(*it->second);
}

Result<std::vector<std::string>> Njs::storage_files(JobToken token) const {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  std::vector<std::string> names;
  visit_workspaces(it->second->root, "",
                   [&names](const std::string& prefix,
                            uspace::Uspace& workspace) {
                     for (auto& name : workspace.list())
                       names.push_back(prefix + name);
                   });
  return names;
}

Result<std::uint64_t> Njs::reap_storage(JobToken token) {
  auto it = jobs_.find(token);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such job: " + std::to_string(token));
  JobRun& job = *it->second;
  if (!job.finalized)
    return util::make_error(ErrorCode::kFailedPrecondition,
                            "job " + std::to_string(token) +
                                " still running: storage not reapable");
  std::uint64_t physical_before =
      chunk_store_ != nullptr ? chunk_store_->stats().physical_bytes : 0;
  std::uint64_t freed = 0;
  visit_workspaces(job.root, "",
                   [&freed](const std::string&, uspace::Uspace& workspace) {
                     freed += workspace.used_bytes();
                     for (auto& name : workspace.list())
                       (void)workspace.remove(name);
                   });
  if (!job.storage_reaped) {
    job.storage_reaped = true;
    ++storages_reaped_;
    if (storage_reap_counter_) storage_reap_counter_->increment();
  }
  std::uint64_t physical_freed = 0;
  if (chunk_store_ != nullptr) {
    // Removing the files dropped their chunk pins; chunks nobody else
    // references were freed. Physical reclaim can be less than `freed`
    // when surviving files still share chunks with the reaped ones.
    physical_freed = physical_before - chunk_store_->stats().physical_bytes;
    if (reap_reclaimed_counter_ == nullptr)
      reap_reclaimed_counter_ = &metrics_->counter(
          "unicore_store_reap_reclaimed_bytes_total", {{"usite", usite_}});
    reap_reclaimed_counter_->add(static_cast<double>(physical_freed));
  }
  UNICORE_INFO("njs/" + usite_)
      << "reaped storage of job " << token << ": " << freed
      << " logical bytes freed"
      << (chunk_store_ != nullptr
              ? ", " + std::to_string(physical_freed) + " physical"
              : "");
  return freed;
}

std::size_t Njs::clean_job_storages() {
  if (storage_policy_.max_terminal_bytes == 0) return 0;
  // Terminal, unreaped storages oldest-first, with their current sizes.
  std::vector<std::pair<sim::Time, JobToken>> candidates;
  std::uint64_t total = 0;
  for (const auto& [token, job] : jobs_) {
    if (!job->finalized || job->storage_reaped) continue;
    std::uint64_t used = 0;
    visit_workspaces(job->root, "",
                     [&used](const std::string&, uspace::Uspace& workspace) {
                       used += workspace.used_bytes();
                     });
    total += used;
    candidates.emplace_back(job->consigned_at, token);
  }
  std::sort(candidates.begin(), candidates.end());
  std::size_t reaped = 0;
  for (const auto& [consigned_at, token] : candidates) {
    if (total <= storage_policy_.max_terminal_bytes) break;
    auto freed = reap_storage(token);
    if (!freed) continue;
    total -= freed.value() < total ? freed.value() : total;
    ++reaped;
  }
  return reaped;
}

void Njs::record_transfer_span(
    JobToken token, const std::string& name, sim::Time start, sim::Time end,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  auto it = jobs_.find(token);
  if (it == jobs_.end()) return;
  // Parent 0 (root): transfers can outlive the job phases they feed, so
  // nesting them under a lifecycle span would break trace validation.
  obs::SpanId span = it->second->trace.record(name, start, end, 0);
  for (const auto& [key, value] : attributes)
    it->second->trace.annotate(span, key, value);
}

std::size_t Njs::active_jobs() const {
  std::size_t count = 0;
  for (const auto& [token, job] : jobs_)
    if (!job->finalized) ++count;
  return count;
}

}  // namespace unicore::njs
