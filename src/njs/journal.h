// The NJS write-ahead job journal (crash recovery). The paper promises
// "reliable execution of the job parts" (§5.3); the in-memory JobRun
// table alone cannot deliver that, so every consignment and every batch
// submission is first appended to a durable journal. After a crash,
// `Njs::recover()` folds the journal back into jobs: finalized jobs are
// restored with their recorded Outcome, live jobs are re-admitted
// through the normal dispatch path, and actions whose batch jobs were
// already submitted are *re-attached* instead of re-submitted — the
// journal is what makes replay idempotent.
//
// The store is pluggable: it models the NJS host's disks, so it also
// hands out the durable per-job Uspace directories that survive an NJS
// process restart (the batch subsystems and Xspace volumes live in
// other processes and keep their own state).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "batch/subsystem.h"
#include "crypto/x509.h"
#include "gateway/gateway.h"
#include "sim/engine.h"
#include "uspace/filespace.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::njs {

enum class JournalRecordType : std::uint8_t {
  kConsigned = 1,       // a job was accepted: full replay material
  kBatchSubmitted = 2,  // an action reached a batch queue
  kActionState = 3,     // per-action state transition (inspection)
  kFinalized = 4,       // the job's terminal Outcome
  kDeleted = 5,         // the owner deleted the job (do not resurrect)
  // 6–8 are retired (the single-file transfer records); never reuse
  // them. Replay skips them like any other type it does not own.
  // Handoff claim (docs/SCALING.md): the named peer replica now owns
  // this journal's partition. Appended by Journal::try_claim; job
  // recovery skips it.
  kOwnerClaim = 9,
  // Transfer records (owned by src/xfer/, opaque to job recovery;
  // docs/DATA.md §3): ONE manifest per bundle of up to kMaxBundleFiles
  // files — a single file is a bundle of one — then one record per
  // applied chunk tagged with its in-bundle file index, and either the
  // committed-bundle tombstone or the idle-expiry one. See
  // xfer/manifest.h for the codecs.
  kXferBundleManifest = 10,
  kXferBundleChunk = 11,
  kXferBundleDone = 12,
  kXferBundleExpired = 13,
};

const char* journal_record_type_name(JournalRecordType type);

/// One append-only entry: the token it belongs to plus a type-specific
/// payload (encoded with the canonical codecs of `util::bytes`).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kConsigned;
  ajo::JobToken token = 0;
  util::Bytes payload;
};

/// The durable medium, modelling the NJS host's disks: everything in
/// memory, but *outside* the Njs object, so it survives `Njs::crash()`
/// exactly like a disk would survive a process restart.
/// `append`/`replay` persist journal records; `workspace` returns the
/// per-job Uspace directory for `directory`, creating it on first use
/// and returning the *same* object (with its files intact) after a
/// crash — job directories live on disk, not in NJS memory (§5.5).
class JournalStore {
 public:
  void append(JournalRecord record);
  void replay(const std::function<void(const JournalRecord&)>& visit) const;
  std::size_t size() const;
  std::shared_ptr<uspace::Uspace> workspace(const std::string& directory,
                                            std::uint64_t quota_bytes);

 private:
  std::vector<JournalRecord> records_;
  std::map<std::string, std::shared_ptr<uspace::Uspace>> workspaces_;
};

/// Typed facade over a store: encodes/decodes records and folds the log
/// into per-job recovery images.
class Journal {
 public:
  explicit Journal(std::shared_ptr<JournalStore> store)
      : store_(std::move(store)) {}

  void record_consigned(ajo::JobToken token, const ajo::AbstractJobObject& job,
                        const gateway::AuthenticatedUser& user,
                        const crypto::Certificate& user_certificate,
                        const util::Bytes& idempotency_key,
                        const uspace::StagedFiles& staged_files,
                        sim::Time consigned_at);
  void record_batch_submitted(ajo::JobToken token,
                              const std::string& action_path,
                              batch::BatchJobId batch_id);
  void record_action_state(ajo::JobToken token, const std::string& action_path,
                           ajo::ActionStatus status);
  void record_finalized(ajo::JobToken token, const ajo::Outcome& outcome);
  void record_deleted(ajo::JobToken token);

  /// Everything `Njs::recover()` needs to re-admit one journaled job.
  struct RecoveredJob {
    ajo::JobToken token = 0;
    ajo::AbstractJobObject job;
    gateway::AuthenticatedUser user;
    crypto::Certificate user_certificate;
    util::Bytes idempotency_key;  // empty for direct user consigns
    uspace::StagedFiles staged_files;
    sim::Time consigned_at = 0;
    // action path -> batch id for every submission that reached a queue
    std::map<std::string, batch::BatchJobId> batch_ids;
    std::optional<ajo::Outcome> outcome;  // set when the job finalized
  };

  /// Replays the log and folds it into one image per surviving job
  /// (deleted jobs are dropped), ordered by token. Records that fail to
  /// decode are skipped — a truncated journal loses jobs, it does not
  /// poison recovery.
  std::vector<RecoveredJob> recover() const;

  std::shared_ptr<uspace::Uspace> workspace(const std::string& directory,
                                            std::uint64_t quota_bytes) {
    return store_->workspace(directory, quota_bytes);
  }

  /// Raw access for subsystems that journal their own record types
  /// (the transfer engine's manifests and chunks). Job recovery skips
  /// record types it does not own.
  void append(JournalRecord record) { store_->append(std::move(record)); }
  void replay(const std::function<void(const JournalRecord&)>& visit) const {
    store_->replay(visit);
  }

  std::size_t records() const { return store_->size(); }

  /// Journal-handoff claim. A claim is an ordinary appended record, so
  /// it lives on the shared store exactly like the job records: the
  /// first peer to claim an orphaned journal owns it, and a later
  /// claim by a *different* claimant is refused kFailedPrecondition —
  /// two peers can never both adopt the same partition. Re-claiming
  /// under the same name is idempotent (a claimant retrying after its
  /// own hiccup). A non-empty `supersede` names one claimant whose
  /// claim may be replaced — the cluster layer passes the name of a
  /// replica it has *itself* declared dead, so a partition whose
  /// adopter also died can be handed off again.
  util::Status try_claim(const std::string& claimant,
                         const std::string& supersede = "");
  /// The latest claimant on the log; empty if the journal was never
  /// handed off.
  std::string claimant() const;

 private:
  std::shared_ptr<JournalStore> store_;
};

}  // namespace unicore::njs
