// Horizontal NJS scale-out for one Usite (docs/SCALING.md). A cluster
// owns N NJS replicas that together front the *same* set of Vsites:
// replica i mints job tokens in partition i of the token space
// (njs::kTokenPartitionShift), keeps its own write-ahead journal on its
// own store ("disk"), and shares the Vsite runtimes — batch subsystems,
// Xspace volumes, translation tables — with replica 0, because those
// model the destination systems themselves.
//
// Consignments are routed by a stable hash of the consigning user's DN
// and the job name over the *alive* replicas, with one override: a
// consign carrying an idempotency key that some replica already
// admitted goes back to that replica (retries stay idempotent across
// the cluster). Token-addressed requests (query, control, file
// delivery) route to the partition's current *owner* — the minting
// replica until it dies, its adopter after journal handoff.
//
// Failure model: kill(i) crashes replica i's process. Its journal — a
// disk — survives, and handoff(i, j) lets replica j claim it
// (Journal::try_claim arbitrates: the first claimant wins, a second
// distinct claimant is refused) and replay it. Jobs whose batch
// submissions were already acknowledged re-attach to the shared batch
// subsystems instead of re-submitting — a handoff never duplicates a
// batch job.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "njs/journal.h"
#include "njs/njs.h"
#include "obs/metrics.h"

namespace unicore::njs {

/// Recovery diagnostics of a replica set: the kJournalInspect reply.
struct JournalInfo {
  bool has_journal = false;   // the primary keeps a journal
  std::uint64_t records = 0;  // this and the rest: summed over replicas
  std::uint64_t recoveries = 0;
  std::uint64_t consigns_deduped = 0;
  std::uint64_t batch_retries = 0;

  void encode(util::ByteWriter& w) const;
  static JournalInfo decode(util::ByteReader& r);
};

class NjsCluster {
 public:
  /// Builds `replica_count` NJS replicas named `usite`, each with its
  /// own JournalStore + Journal attached and its token partition
  /// set to its index. Replica 0 is the primary; add Vsites through the
  /// cluster so they are shared to every replica.
  NjsCluster(sim::Engine& engine, util::Rng& rng, std::string usite,
             crypto::Credential credential, std::size_t replica_count = 1);

  NjsCluster(const NjsCluster&) = delete;
  NjsCluster& operator=(const NjsCluster&) = delete;

  const std::string& usite() const { return usite_; }
  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t alive_count() const;

  Njs& replica(std::size_t index) { return *replicas_[index].njs; }
  const Njs& replica(std::size_t index) const {
    return *replicas_[index].njs;
  }
  Njs& primary() { return replica(0); }
  const std::shared_ptr<Journal>& journal(std::size_t index) const {
    return replicas_[index].journal;
  }
  bool alive(std::size_t index) const { return replicas_[index].alive; }

  /// Registers a Vsite on the primary and shares the runtime with every
  /// other replica.
  batch::BatchSubsystem& add_vsite(Njs::VsiteConfig config);

  // --- routing ------------------------------------------------------------

  /// The replica a fresh consignment for (`dn`, `job_name`) routes to:
  /// a stable FNV-1a hash over the alive replicas (a dead replica's
  /// slot probes linearly to the next alive one, leaving every other
  /// assignment untouched). nullopt when no replica is alive.
  std::optional<std::size_t> route(const crypto::DistinguishedName& dn,
                                   const std::string& job_name) const;

  /// The replica that owns `token`'s partition: its minting replica, or
  /// the adopter after a handoff. nullopt while the owner is dead and
  /// the partition unadopted.
  std::optional<std::size_t> owner_of(ajo::JobToken token) const;
  Njs* replica_for_token(ajo::JobToken token);

  /// Routed consignment: an idempotency key already admitted anywhere
  /// in the cluster goes back to its owning replica; everything else is
  /// hash-routed. kUnavailable when no replica is alive.
  util::Result<ajo::JobToken> consign(
      const ajo::AbstractJobObject& job, const gateway::AuthenticatedUser& user,
      const crypto::Certificate& user_certificate,
      Njs::FinalHandler on_final = nullptr,
      uspace::StagedFiles staged_files = {},
      util::Bytes idempotency_key = {});

  /// Job summaries for `user` merged across every alive replica,
  /// ordered by token.
  std::vector<JobSummary> list(const crypto::DistinguishedName& user) const;

  /// Managed job storages for `user` merged across every alive replica,
  /// ordered by token.
  std::vector<StorageInfo> storages(const crypto::DistinguishedName& user)
      const;

  /// Journal depth and fault counters across every replica.
  JournalInfo journal_info() const;

  // --- failure / handoff --------------------------------------------------

  /// Crashes replica `index` and marks it dead for routing. With
  /// auto-handoff enabled (the default), the next alive replica claims
  /// and replays the dead one's journal immediately.
  void kill(std::size_t index);

  /// Replica `adopter` claims the journal of dead replica `dead` and
  /// replays it. Fails kFailedPrecondition when `dead` is still alive,
  /// when the journal was already claimed by a different replica
  /// (double handoff), or when `adopter` is dead. Returns jobs adopted.
  util::Result<std::size_t> handoff(std::size_t dead, std::size_t adopter);

  /// Restarts a killed replica via its own journal (Njs::recover).
  /// Refused once the partition was handed off — the adopter owns it.
  util::Result<std::size_t> restart(std::size_t index);

  void set_auto_handoff(bool enabled) { auto_handoff_ = enabled; }
  std::uint64_t handoffs() const { return handoffs_; }

  // --- observability ------------------------------------------------------

  /// Shares `registry` with every replica and publishes the per-replica
  /// gauges unicore_njs_replica_jobs / unicore_njs_replica_handoffs.
  void set_metrics(std::shared_ptr<obs::MetricsRegistry> registry);
  void refresh_gauges();

  std::uint64_t total_jobs_consigned() const;

 private:
  struct Replica {
    std::unique_ptr<Njs> njs;
    std::shared_ptr<Journal> journal;
    bool alive = true;
  };

  std::string usite_;
  std::vector<Replica> replicas_;
  /// partition index -> owning replica index.
  std::vector<std::size_t> owners_;
  bool auto_handoff_ = true;
  std::uint64_t handoffs_ = 0;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
};

}  // namespace unicore::njs
