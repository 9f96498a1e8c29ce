#include "njs/cluster.h"

#include <algorithm>
#include <utility>

#include "gateway/uudb.h"
#include "util/log.h"

namespace unicore::njs {
namespace {

/// The stable name replica `index` claims journals under.
std::string replica_name(const std::string& usite, std::size_t index) {
  return usite + "#njs" + std::to_string(index);
}

}  // namespace

NjsCluster::NjsCluster(sim::Engine& engine, util::Rng& rng, std::string usite,
                       crypto::Credential credential,
                       std::size_t replica_count)
    : usite_(std::move(usite)) {
  if (replica_count == 0) replica_count = 1;
  replicas_.reserve(replica_count);
  owners_.reserve(replica_count);
  for (std::size_t i = 0; i < replica_count; ++i) {
    Replica replica;
    replica.njs = std::make_unique<Njs>(engine, rng.fork(), usite_, credential);
    replica.journal =
        std::make_shared<Journal>(std::make_shared<JournalStore>());
    replica.njs->set_token_partition(i);
    // Journals are the handoff substrate, so a multi-replica cluster
    // always attaches them. A single-replica cluster leaves journaling
    // to the deployment (exactly the pre-scale-out behaviour: tests and
    // benches opt in with Njs::set_journal).
    if (replica_count > 1) replica.njs->set_journal(replica.journal);
    if (i > 0) replica.njs->share_vsites(*replicas_[0].njs);
    replicas_.push_back(std::move(replica));
    owners_.push_back(i);
  }
}

std::size_t NjsCluster::alive_count() const {
  std::size_t alive = 0;
  for (const Replica& replica : replicas_)
    if (replica.alive) ++alive;
  return alive;
}

batch::BatchSubsystem& NjsCluster::add_vsite(Njs::VsiteConfig config) {
  batch::BatchSubsystem& subsystem =
      replicas_[0].njs->add_vsite(std::move(config));
  for (std::size_t i = 1; i < replicas_.size(); ++i)
    replicas_[i].njs->share_vsites(*replicas_[0].njs);
  return subsystem;
}

std::optional<std::size_t> NjsCluster::route(
    const crypto::DistinguishedName& dn, const std::string& job_name) const {
  if (alive_count() == 0) return std::nullopt;
  // Hash over the *full* replica set, then probe past dead slots: an
  // assignment only moves when its own replica dies, never because an
  // unrelated replica did.
  std::size_t slot =
      gateway::dn_shard_of(dn.to_string() + "\n" + job_name,
                           replicas_.size());
  for (std::size_t probe = 0; probe < replicas_.size(); ++probe) {
    std::size_t candidate = (slot + probe) % replicas_.size();
    if (replicas_[candidate].alive) return candidate;
  }
  return std::nullopt;
}

std::optional<std::size_t> NjsCluster::owner_of(ajo::JobToken token) const {
  std::uint64_t partition = njs::token_partition(token);
  if (partition >= owners_.size()) return std::nullopt;
  std::size_t owner = owners_[partition];
  if (!replicas_[owner].alive) return std::nullopt;
  return owner;
}

Njs* NjsCluster::replica_for_token(ajo::JobToken token) {
  auto owner = owner_of(token);
  return owner ? replicas_[*owner].njs.get() : nullptr;
}

util::Result<ajo::JobToken> NjsCluster::consign(
    const ajo::AbstractJobObject& job, const gateway::AuthenticatedUser& user,
    const crypto::Certificate& user_certificate, Njs::FinalHandler on_final,
    uspace::StagedFiles staged_files,
    util::Bytes idempotency_key) {
  std::optional<std::size_t> target;
  if (!idempotency_key.empty()) {
    // A retried consign goes back to wherever its key was admitted —
    // after a handoff that is the adopter, which replays the key from
    // the dead replica's journal.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!replicas_[i].alive) continue;
      if (replicas_[i].njs->consign_key_lookup(idempotency_key)) {
        target = i;
        break;
      }
    }
  }
  if (!target) target = route(user.dn, job.name());
  if (!target)
    return util::make_error(util::ErrorCode::kUnavailable,
                            "no alive NJS replica at " + usite_);
  return replicas_[*target].njs->consign(job, user, user_certificate,
                                         std::move(on_final),
                                         std::move(staged_files),
                                         std::move(idempotency_key));
}

std::vector<JobSummary> NjsCluster::list(
    const crypto::DistinguishedName& user) const {
  std::vector<JobSummary> merged;
  for (const Replica& replica : replicas_) {
    if (!replica.alive) continue;
    auto part = replica.njs->list(user);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const JobSummary& a, const JobSummary& b) {
              return a.token < b.token;
            });
  return merged;
}

std::vector<StorageInfo> NjsCluster::storages(
    const crypto::DistinguishedName& user) const {
  std::vector<StorageInfo> merged;
  for (const Replica& replica : replicas_) {
    if (!replica.alive) continue;
    auto part = replica.njs->storages(user);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const StorageInfo& a, const StorageInfo& b) {
              return a.token < b.token;
            });
  return merged;
}

void JournalInfo::encode(util::ByteWriter& w) const {
  w.boolean(has_journal);
  w.varint(records);
  w.u64(recoveries);
  w.u64(consigns_deduped);
  w.u64(batch_retries);
}

JournalInfo JournalInfo::decode(util::ByteReader& r) {
  JournalInfo info;
  info.has_journal = r.boolean();
  info.records = r.varint();
  info.recoveries = r.u64();
  info.consigns_deduped = r.u64();
  info.batch_retries = r.u64();
  return info;
}

JournalInfo NjsCluster::journal_info() const {
  JournalInfo info;
  info.has_journal = replica(0).journal() != nullptr;
  for (const Replica& replica : replicas_) {
    if (replica.njs->journal() != nullptr)
      info.records += replica.njs->journal()->records();
    info.recoveries += replica.njs->recoveries();
    info.consigns_deduped += replica.njs->consigns_deduped();
    info.batch_retries += replica.njs->batch_retries();
  }
  return info;
}

void NjsCluster::kill(std::size_t index) {
  Replica& replica = replicas_[index];
  if (!replica.alive) return;
  replica.njs->crash();
  replica.alive = false;
  UNICORE_WARN("njs-cluster/" + usite_)
      << "replica " << index << " killed (" << alive_count() << "/"
      << replicas_.size() << " alive)";
  if (!auto_handoff_) return;
  for (std::size_t probe = 1; probe < replicas_.size(); ++probe) {
    std::size_t adopter = (index + probe) % replicas_.size();
    if (!replicas_[adopter].alive) continue;
    auto adopted = handoff(index, adopter);
    if (!adopted)
      UNICORE_WARN("njs-cluster/" + usite_)
          << "auto-handoff " << index << " -> " << adopter
          << " failed: " << adopted.error().message;
    return;
  }
}

util::Result<std::size_t> NjsCluster::handoff(std::size_t dead,
                                              std::size_t adopter) {
  if (dead >= replicas_.size() || adopter >= replicas_.size() ||
      dead == adopter)
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "bad handoff pair");
  if (replicas_[dead].alive)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "replica " + std::to_string(dead) +
                                " is still alive");
  if (!replicas_[adopter].alive)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "adopter " + std::to_string(adopter) +
                                " is dead");

  const std::string dead_name = replica_name(usite_, dead);
  const std::string adopter_name = replica_name(usite_, adopter);
  std::size_t adopted_jobs = 0;
  bool any = false;
  // Every partition the dead replica owned: its home partition plus any
  // it had itself adopted earlier (those may be re-handed off — the
  // cluster declared the previous claimant dead, so its claim is
  // superseded).
  for (std::size_t partition = 0; partition < owners_.size(); ++partition) {
    if (owners_[partition] != dead) continue;
    const std::shared_ptr<Journal>& journal = replicas_[partition].journal;
    util::Status claimed = journal->try_claim(adopter_name, dead_name);
    if (!claimed.ok()) return util::Result<std::size_t>(claimed.error());
    auto adopted = replicas_[adopter].njs->adopt(partition, journal);
    if (!adopted) return adopted;
    adopted_jobs += adopted.value();
    owners_[partition] = adopter;
    any = true;
  }
  if (!any)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "replica " + std::to_string(dead) +
                                " owns no partition (already handed off)");
  ++handoffs_;
  UNICORE_INFO("njs-cluster/" + usite_)
      << "handoff " << dead << " -> " << adopter << ": " << adopted_jobs
      << " jobs adopted";
  refresh_gauges();
  return adopted_jobs;
}

util::Result<std::size_t> NjsCluster::restart(std::size_t index) {
  Replica& replica = replicas_[index];
  if (replica.alive)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "replica is alive");
  if (owners_[index] != index)
    return util::make_error(
        util::ErrorCode::kFailedPrecondition,
        "partition " + std::to_string(index) + " was handed off to replica " +
            std::to_string(owners_[index]));
  auto recovered = replica.njs->recover();
  if (!recovered) return recovered;
  replica.alive = true;
  refresh_gauges();
  return recovered;
}

void NjsCluster::set_metrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  metrics_ = std::move(registry);
  for (Replica& replica : replicas_) replica.njs->set_metrics(metrics_);
  refresh_gauges();
}

void NjsCluster::refresh_gauges() {
  if (!metrics_) return;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    obs::Labels labels{{"usite", usite_}, {"replica", std::to_string(i)}};
    metrics_->gauge("unicore_njs_replica_jobs", labels)
        .set(static_cast<double>(replicas_[i].njs->jobs_consigned()));
    metrics_->gauge("unicore_njs_replica_handoffs", labels)
        .set(static_cast<double>(replicas_[i].njs->adoptions()));
  }
}

std::uint64_t NjsCluster::total_jobs_consigned() const {
  std::uint64_t total = 0;
  for (const Replica& replica : replicas_)
    total += replica.njs->jobs_consigned();
  return total;
}

}  // namespace unicore::njs
