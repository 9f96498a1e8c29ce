// The Network Job Supervisor (§5.5) — the job-management half of the
// UNICORE server.
//
// Responsibilities, as enumerated by the paper:
//   - transform the abstract job into an internal format (incarnation.h),
//   - split it into the job groups destined for different sites,
//   - distribute and control the job groups (PeerLink),
//   - translate abstract specifications via translation tables,
//   - submit the batch jobs to the execution system,
//   - create a UNICORE job directory (Uspace) per job group,
//   - collect standard output/error and make them available (Outcome),
//   - initiate all data transfers, imports, and exports.
//
// Scheduling "is limited to the delivery of the generated batch jobs to
// the destination systems in the specified sequence. It has no means of
// influencing the scheduling on the destination systems" — the NJS only
// orders deliveries; queueing decisions stay with BatchSubsystem.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "batch/subsystem.h"
#include "gateway/gateway.h"
#include "njs/incarnation.h"
#include "njs/journal.h"
#include "njs/peer_link.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "uspace/filespace.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/rng.h"

namespace unicore::njs {

/// Token-space striding for NJS partitioning (docs/SCALING.md): replica
/// p of a Usite mints tokens in [p << kTokenPartitionShift,
/// (p+1) << kTokenPartitionShift), so a token names its home partition
/// and replicas never collide. A single-NJS Usite is partition 0 and
/// keeps the familiar tokens 1, 2, 3, …
constexpr unsigned kTokenPartitionShift = 40;

constexpr std::uint64_t token_partition(ajo::JobToken token) {
  return token >> kTokenPartitionShift;
}
constexpr ajo::JobToken token_partition_base(std::uint64_t partition) {
  return static_cast<ajo::JobToken>(partition) << kTokenPartitionShift;
}

/// A subsystem whose in-memory state lives inside the NJS process and
/// must die and be rebuilt with it (the transfer engine's open-transfer
/// table). `on_njs_crash` fires after the NJS wiped its own state;
/// `on_njs_recover` after jobs were rebuilt from the journal, so
/// participants can fold their own journal records against live jobs.
/// `on_njs_adopt` fires after the NJS adopted a dead peer replica's
/// journal (handoff), so participants can fold that journal's records
/// without wiping their own live state.
class CrashParticipant {
 public:
  virtual ~CrashParticipant() = default;
  virtual void on_njs_crash() = 0;
  virtual void on_njs_recover() = 0;
  virtual void on_njs_adopt(const Journal& journal) { (void)journal; }
};

/// One-line job record for the ListService, and one row of its reply.
struct JobSummary {
  ajo::JobToken token = 0;
  std::string name;
  ajo::ActionStatus status = ajo::ActionStatus::kPending;
  sim::Time consigned_at = 0;

  void encode(util::ByteWriter& w) const;
  static JobSummary decode(util::ByteReader& r);
};

/// One job's managed working storage (docs/PORTAL.md): the Uspace tree
/// the NJS created for the job, kept around after completion so outputs
/// can be revisited until the storage is reaped. One row of the
/// kStorageList reply.
struct StorageInfo {
  ajo::JobToken token = 0;
  std::string name;  // "job<token>"
  std::uint64_t used_bytes = 0;
  std::uint64_t quota_bytes = 0;  // 0 = unlimited
  std::size_t files = 0;
  bool terminal = false;  // job finished — the storage is reapable
  bool reaped = false;
  sim::Time consigned_at = 0;

  void encode(util::ByteWriter& w) const;
  static StorageInfo decode(util::ByteReader& r);
};

/// Quota-driven cleanup of finished jobs' storages (the portal's
/// clean_job_storages behaviour, applied server-side).
struct StoragePolicy {
  /// Combined bytes the storages of *terminal* jobs may hold before the
  /// oldest are reaped automatically. 0 disables automatic cleanup.
  std::uint64_t max_terminal_bytes = 0;
};

class Njs {
 public:
  struct VsiteConfig {
    batch::SystemConfig system;
    /// Empty optional selects default_translation_table(architecture).
    std::optional<TranslationTable> table;
    double disk_bandwidth_bytes_per_sec = 20e6;
    std::uint64_t uspace_quota_bytes = 0;  // 0 = unlimited
    std::vector<resources::SoftwareItem> software;
  };

  Njs(sim::Engine& engine, util::Rng rng, std::string usite,
      crypto::Credential server_credential);
  ~Njs();

  Njs(const Njs&) = delete;
  Njs& operator=(const Njs&) = delete;

  const std::string& usite() const { return usite_; }
  const crypto::Credential& server_credential() const { return credential_; }

  /// Registers a Vsite (one destination system) at this Usite.
  batch::BatchSubsystem& add_vsite(VsiteConfig config);

  /// Shares every Vsite runtime of `primary` with this NJS: the batch
  /// subsystems, Xspace volumes, and translation tables model the
  /// destination systems themselves, which all NJS replicas of one
  /// Usite front together. Required for journal handoff — re-attaching
  /// an adopted batch submission needs the *same* BatchSubsystem
  /// instance the dead replica submitted to.
  void share_vsites(Njs& primary);

  std::vector<std::string> vsites() const;
  batch::BatchSubsystem* subsystem(const std::string& vsite);
  uspace::Xspace* xspace(const std::string& vsite);

  /// The resource page of one Vsite (§5.4), derived from its system
  /// configuration and software catalogue.
  util::Result<resources::ResourcePage> resource_page(
      const std::string& vsite) const;
  std::vector<resources::ResourcePage> resource_pages() const;

  /// Wires this NJS to its peers (owned by the server/grid layer).
  void set_peer_link(PeerLink* link) { peer_link_ = link; }

  /// NJS-side processing latency per dispatched action (default 50 ms);
  /// exposed for benches.
  void set_dispatch_latency(sim::Time latency) { dispatch_latency_ = latency; }

  // --- consignment -------------------------------------------------------

  using FinalHandler = std::function<void(ajo::JobToken, const ajo::Outcome&)>;

  /// Accepts an authenticated job for execution. The gateway has already
  /// performed the consignment check; `user` is the mapped identity and
  /// `user_certificate` the original user certificate (needed to endorse
  /// sub-AJOs to peer sites). `on_final` (optional) fires once when the
  /// job reaches a terminal state.
  /// A non-empty `idempotency_key` (the signed-AJO digest, computed by
  /// the server layer for forwarded consignments) makes the consign
  /// idempotent: a duplicate key returns the original token, and
  /// `on_final` is (re-)registered against the existing job — this is
  /// what lets the peer link retry consigns safely.
  util::Result<ajo::JobToken> consign(
      const ajo::AbstractJobObject& job, const gateway::AuthenticatedUser& user,
      const crypto::Certificate& user_certificate,
      FinalHandler on_final = nullptr,
      uspace::StagedFiles staged_files = {},
      util::Bytes idempotency_key = {});

  /// Attaches the site's content-addressed chunk store. Delivered files
  /// that are not already store-backed are interned into it (chunk-level
  /// dedup across files and jobs), and reap_storage reports the physical
  /// bytes each reap actually returned to the store.
  void set_chunk_store(std::shared_ptr<store::ChunkStore> chunk_store) {
    chunk_store_ = std::move(chunk_store);
  }
  const std::shared_ptr<store::ChunkStore>& chunk_store() const {
    return chunk_store_;
  }

  /// Files arriving with / for a consigned job (inter-site transfers and
  /// consignment-staged dependency data) land in the root Uspace.
  util::Status deliver_file(ajo::JobToken token, const std::string& name,
                            uspace::FileBlob blob);
  util::Status deliver_file(ajo::JobToken token, const std::string& name,
                            std::shared_ptr<const uspace::FileBlob> blob);
  util::Result<uspace::FileBlob> fetch_file(ajo::JobToken token,
                                            const std::string& name) const;
  /// Zero-copy read: the returned blob is shared with the Uspace (blobs
  /// are immutable once written).
  util::Result<std::shared_ptr<const uspace::FileBlob>> fetch_file_shared(
      ajo::JobToken token, const std::string& name) const;

  // --- JMC services ------------------------------------------------------

  util::Result<ajo::Outcome> query(ajo::JobToken token,
                                   ajo::QueryService::Detail detail) const;

  /// Distinguished name of the user a job was consigned for (server-side
  /// ownership checks).
  util::Result<crypto::DistinguishedName> owner(ajo::JobToken token) const;
  std::vector<JobSummary> list(const crypto::DistinguishedName& user) const;
  util::Status control(ajo::JobToken token,
                       ajo::ControlService::Command command);

  /// Reads a file from a terminal job's Uspace (JMC "save output").
  util::Result<uspace::FileBlob> read_output(ajo::JobToken token,
                                             const std::string& name) const;
  util::Result<std::shared_ptr<const uspace::FileBlob>> read_output_shared(
      ajo::JobToken token, const std::string& name) const;

  // --- managed job storages -----------------------------------------------

  /// The working storages of every job `user` consigned here, newest
  /// last (iteration order is token order, which is consignment order).
  std::vector<StorageInfo> storages(const crypto::DistinguishedName& user)
      const;
  util::Result<StorageInfo> storage_info(ajo::JobToken token) const;
  /// Names in the job's storage: root-workspace files plain, sub-group
  /// workspace files prefixed "g<group-id>/".
  util::Result<std::vector<std::string>> storage_files(
      ajo::JobToken token) const;
  /// Empties every workspace of a *terminal* job, freeing its quota
  /// bytes. The job record stays for queries; reading reaped outputs
  /// fails kNotFound. Returns the bytes freed.
  util::Result<std::uint64_t> reap_storage(ajo::JobToken token);

  void set_storage_policy(StoragePolicy policy) { storage_policy_ = policy; }
  const StoragePolicy& storage_policy() const { return storage_policy_; }
  /// Applies the storage policy now: reaps the oldest terminal storages
  /// until their combined bytes fit max_terminal_bytes. Runs
  /// automatically after every job finalization; returns storages
  /// reaped. No-op while the policy is disabled.
  std::size_t clean_job_storages();
  std::uint64_t storages_reaped() const { return storages_reaped_; }

  // --- crash recovery -----------------------------------------------------

  /// Attaches the write-ahead journal. From here on every consignment,
  /// batch submission, and finalization is journaled, and job
  /// workspaces come from the journal store's durable directories.
  void set_journal(std::shared_ptr<Journal> journal);
  const std::shared_ptr<Journal>& journal() const { return journal_; }

  // --- partitioning / handoff (docs/SCALING.md) ---------------------------

  /// Places this replica's tokens at partition `p` of the token space;
  /// call before the first consign. Partition 0 (the default) is the
  /// single-NJS Usite.
  void set_token_partition(std::uint64_t partition);
  std::uint64_t token_partition() const { return partition_; }

  /// The journal a token's records belong to: the replica's own journal
  /// for its home partition, an adopted journal for a partition taken
  /// over by handoff. nullptr when no journal is attached.
  Journal* journal_for(ajo::JobToken token) const;
  /// Own journal first, then every adopted one (no nulls).
  std::vector<Journal*> all_journals() const;

  /// Journal handoff: takes over partition `partition` of a dead peer
  /// replica by replaying its journal — live jobs are re-admitted
  /// through the normal dispatch path and re-attach to batch jobs the
  /// dead replica already submitted (zero duplicate submissions);
  /// terminal jobs are restored as records. The adopted journal keeps
  /// receiving this partition's records afterwards (it is the
  /// partition's log on the shared store). Returns jobs adopted.
  util::Result<std::size_t> adopt(std::uint64_t partition,
                                  std::shared_ptr<Journal> journal);
  std::uint64_t adoptions() const { return adoptions_; }

  /// Token a consign idempotency key already maps to, if any — lets the
  /// routing layer send a retried consign to the replica that owns it.
  std::optional<ajo::JobToken> consign_key_lookup(
      const util::Bytes& key) const;

  /// Registers a subsystem that must be wiped on crash() and rebuilt on
  /// recover(). The pointer must outlive the NJS (or be removed by
  /// destroying the NJS first).
  void add_crash_participant(CrashParticipant* participant) {
    crash_participants_.push_back(participant);
  }

  /// Simulates an NJS process crash: all in-memory job state vanishes.
  /// Vsites, batch subsystems, Xspace volumes, and the journal store
  /// model other processes/disks and survive.
  void crash();

  /// Rebuilds jobs from the journal after a crash(): finalized jobs are
  /// restored with their recorded Outcome; live jobs are re-admitted
  /// through the normal dispatch path, re-attaching to batch jobs that
  /// were already submitted (no duplicate submissions). Returns the
  /// number of jobs recovered.
  util::Result<std::size_t> recover();

  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t consigns_deduped() const { return consigns_deduped_; }
  std::uint64_t batch_retries() const { return batch_retries_; }

  /// Backoff ladder for retryable batch-submit failures.
  void set_batch_backoff(util::BackoffPolicy policy) {
    batch_backoff_ = policy;
  }

  // --- statistics ---------------------------------------------------------
  std::size_t active_jobs() const;
  std::uint64_t jobs_consigned() const { return jobs_consigned_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }

  // --- observability ------------------------------------------------------

  /// Shares `registry` (e.g. one per deployment, owned by the grid) and
  /// re-registers all NJS/batch series there. Never null after
  /// construction: the NJS creates a private registry by default.
  void set_metrics(std::shared_ptr<obs::MetricsRegistry> registry);
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

  /// Updates sampled gauges (active jobs); call before a snapshot.
  void refresh_gauges();

  /// The recorded lifecycle timeline of a consigned job (MonitorService).
  util::Result<const obs::TraceTimeline*> trace(ajo::JobToken token) const;

  /// Appends a closed span to a job's timeline on behalf of the
  /// transfer engine (chunked deliveries into this job's Uspace).
  /// Silently ignored for unknown tokens.
  void record_transfer_span(
      ajo::JobToken token, const std::string& name, sim::Time start,
      sim::Time end,
      const std::vector<std::pair<std::string, std::string>>& attributes = {});

  /// Accounting (§6 "accounting functions"): processor-seconds consumed
  /// per local login across all Vsites of this Usite, accumulated as
  /// batch jobs finish.
  const std::map<std::string, double>& accounting() const {
    return accounting_;
  }

 private:
  struct VsiteRuntime;
  struct ActionRun;
  struct GroupRun;
  struct JobRun;

  // Admission shared by consign() and recover(): `token` is fixed by
  // the caller; journaling is skipped on the recovery path.
  util::Result<ajo::JobToken> admit(
      ajo::JobToken token, const ajo::AbstractJobObject& job,
      const gateway::AuthenticatedUser& user,
      const crypto::Certificate& user_certificate, FinalHandler on_final,
      uspace::StagedFiles staged_files,
      util::Bytes idempotency_key, bool journal_it);

  // Group/graph engine.
  util::Status start_group(JobRun& job, GroupRun& group);
  void dispatch_ready(JobRun& job, GroupRun& group, ActionRun& run);
  void dispatch_action(JobRun& job, GroupRun& group, ActionRun& run);
  void dispatch_execute(JobRun& job, GroupRun& group, ActionRun& run);
  void dispatch_execute_attempt(JobRun& job, GroupRun& group, ActionRun& run,
                                int attempt);
  batch::BatchSubsystem::CompletionHandler make_batch_handler(
      ajo::JobToken token, GroupRun* group_ptr, ajo::ActionId id,
      bool recovered);
  void dispatch_file_task(JobRun& job, GroupRun& group, ActionRun& run);
  void dispatch_subjob(JobRun& job, GroupRun& group, ActionRun& run);
  void complete_action(JobRun& job, GroupRun& group, ActionRun& run,
                       ajo::ActionStatus status, std::string message);
  void propagate_failure(JobRun& job, GroupRun& group, ActionRun& failed);
  void process_edges(JobRun& job, GroupRun& group, ActionRun& completed);

  /// What an asynchronous callback acts on; `run` is null when it must
  /// drop itself.
  struct LiveAction {
    JobRun* job = nullptr;
    ActionRun* run = nullptr;
  };
  /// The job `token` and its action `id` in `group_ptr`, for a callback
  /// created under `epoch`: null when the NJS restarted since, the job
  /// is gone (the group died with it, so it is found first) or the
  /// action is gone or terminal.
  LiveAction live_action(std::uint64_t epoch, ajo::JobToken token,
                         GroupRun* group_ptr, ajo::ActionId id);
  void stage_edge_files_async(JobRun& job, GroupRun& group,
                              ActionRun& predecessor,
                              const std::vector<std::string>& files,
                              std::function<void(util::Status)> done);
  void finalize_if_done(JobRun& job);
  ajo::Outcome build_outcome(const JobRun& job, const GroupRun& group,
                             ajo::QueryService::Detail detail) const;
  ajo::ActionStatus aggregate_status(const GroupRun& group) const;
  void abort_group(JobRun& job, GroupRun& group);
  void set_held(GroupRun& group, bool held);
  void wire_metrics();

  /// Stable identifier of an action across restarts (group-id chain +
  /// action id), used as the journal's batch-submission key.
  static std::string action_path(const GroupRun& group, ajo::ActionId id);

  /// Makes a workspace for `directory`: from the durable store of the
  /// token's journal when attached (an adopted job's directory resolves
  /// on the dead replica's store, files intact), otherwise a fresh
  /// in-memory Uspace.
  std::shared_ptr<uspace::Uspace> make_workspace(ajo::JobToken token,
                                                 const std::string& directory,
                                                 std::uint64_t quota_bytes);

  /// Replays one journal's images into live/terminal jobs — the shared
  /// core of recover() and adopt(). `own_partition` advances
  /// next_token_ past replayed tokens (never for adopted partitions).
  std::size_t replay_journal(Journal& journal, bool own_partition);

  sim::Time staging_delay(const GroupRun& group, std::uint64_t bytes) const;

  /// Visits the root workspace (prefix "") and every sub-group
  /// workspace (prefix "g<id>/") of a job's live GroupRun tree.
  static void visit_workspaces(
      const GroupRun& group, const std::string& prefix,
      const std::function<void(const std::string&, uspace::Uspace&)>& visit);
  StorageInfo make_storage_info(const JobRun& job) const;

  sim::Engine& engine_;
  util::Rng rng_;
  std::string usite_;
  crypto::Credential credential_;
  PeerLink* peer_link_ = nullptr;
  sim::Time dispatch_latency_ = sim::msec(50);

  std::map<std::string, std::shared_ptr<VsiteRuntime>> vsites_;
  std::map<std::string, double> accounting_;
  std::map<ajo::JobToken, std::unique_ptr<JobRun>> jobs_;
  ajo::JobToken next_token_ = 1;
  std::uint64_t partition_ = 0;
  std::uint64_t jobs_consigned_ = 0;
  std::uint64_t jobs_completed_ = 0;
  StoragePolicy storage_policy_;
  std::uint64_t storages_reaped_ = 0;
  std::shared_ptr<store::ChunkStore> chunk_store_;

  // Crash-recovery state. `epoch_` is bumped by crash(): every async
  // callback captures the epoch it was created under and drops itself
  // when the NJS has restarted since (the token alone is not enough —
  // recovery re-inserts the same token with fresh GroupRuns).
  std::shared_ptr<Journal> journal_;
  std::map<std::uint64_t, std::shared_ptr<Journal>> adopted_journals_;
  std::uint64_t adoptions_ = 0;
  std::uint64_t epoch_ = 0;
  std::map<util::Bytes, ajo::JobToken> consign_keys_;
  std::map<std::pair<ajo::JobToken, std::string>, batch::BatchJobId>
      recovered_batch_;
  util::BackoffPolicy batch_backoff_;
  std::vector<CrashParticipant*> crash_participants_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t consigns_deduped_ = 0;
  std::uint64_t batch_retries_ = 0;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* consigned_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Counter* recoveries_counter_ = nullptr;
  obs::Counter* dedupe_counter_ = nullptr;
  obs::Counter* batch_retry_counter_ = nullptr;
  obs::Counter* reattach_counter_ = nullptr;
  obs::Counter* storage_reap_counter_ = nullptr;
  // Resolved on first use and dropped by wire_metrics.
  obs::Counter* reap_reclaimed_counter_ = nullptr;
  std::map<std::string, obs::Counter*> accounting_counters_;  // by login
  obs::Histogram* dispatch_latency_hist_ = nullptr;
  obs::Histogram* job_duration_hist_ = nullptr;
};

}  // namespace unicore::njs
