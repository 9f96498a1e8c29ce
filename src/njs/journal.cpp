#include "njs/journal.h"

#include <algorithm>

#include "ajo/codec.h"

namespace unicore::njs {

const char* journal_record_type_name(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kConsigned: return "consigned";
    case JournalRecordType::kBatchSubmitted: return "batch-submitted";
    case JournalRecordType::kActionState: return "action-state";
    case JournalRecordType::kFinalized: return "finalized";
    case JournalRecordType::kDeleted: return "deleted";
    case JournalRecordType::kOwnerClaim: return "owner-claim";
    case JournalRecordType::kXferBundleManifest: return "xfer-bundle-manifest";
    case JournalRecordType::kXferBundleChunk: return "xfer-bundle-chunk";
    case JournalRecordType::kXferBundleDone: return "xfer-bundle-done";
    case JournalRecordType::kXferBundleExpired: return "xfer-bundle-expired";
  }
  return "unknown";
}

void JournalStore::append(JournalRecord record) {
  records_.push_back(std::move(record));
}

void JournalStore::replay(
    const std::function<void(const JournalRecord&)>& visit) const {
  for (const JournalRecord& record : records_) visit(record);
}

std::size_t JournalStore::size() const { return records_.size(); }

std::shared_ptr<uspace::Uspace> JournalStore::workspace(
    const std::string& directory, std::uint64_t quota_bytes) {
  auto it = workspaces_.find(directory);
  if (it != workspaces_.end()) return it->second;
  auto created = std::make_shared<uspace::Uspace>(directory, quota_bytes);
  workspaces_.emplace(directory, created);
  return created;
}

void Journal::record_consigned(
    ajo::JobToken token, const ajo::AbstractJobObject& job,
    const gateway::AuthenticatedUser& user,
    const crypto::Certificate& user_certificate,
    const util::Bytes& idempotency_key,
    const uspace::StagedFiles& staged_files,
    sim::Time consigned_at) {
  util::ByteWriter w;
  w.blob(ajo::encode_action(job));
  w.blob(user_certificate.der());
  user.encode(w);
  w.blob(idempotency_key);
  uspace::encode_staged(w, staged_files);
  w.i64(consigned_at);
  store_->append({JournalRecordType::kConsigned, token, w.take()});
}

void Journal::record_batch_submitted(ajo::JobToken token,
                                     const std::string& action_path,
                                     batch::BatchJobId batch_id) {
  util::ByteWriter w;
  w.str(action_path);
  w.u64(batch_id);
  store_->append({JournalRecordType::kBatchSubmitted, token, w.take()});
}

void Journal::record_action_state(ajo::JobToken token,
                                  const std::string& action_path,
                                  ajo::ActionStatus status) {
  util::ByteWriter w;
  w.str(action_path);
  w.u8(static_cast<std::uint8_t>(status));
  store_->append({JournalRecordType::kActionState, token, w.take()});
}

void Journal::record_finalized(ajo::JobToken token,
                               const ajo::Outcome& outcome) {
  util::ByteWriter w;
  outcome.encode(w);
  store_->append({JournalRecordType::kFinalized, token, w.take()});
}

void Journal::record_deleted(ajo::JobToken token) {
  store_->append({JournalRecordType::kDeleted, token, {}});
}

std::vector<Journal::RecoveredJob> Journal::recover() const {
  std::map<ajo::JobToken, RecoveredJob> jobs;
  store_->replay([&](const JournalRecord& record) {
    // A truncated record (crash mid-append) fails its reader and is
    // skipped rather than abandoning recovery.
    util::ByteReader r{record.payload};
    switch (record.type) {
      case JournalRecordType::kConsigned: {
        RecoveredJob recovered;
        recovered.token = record.token;
        util::Bytes job_wire = r.blob();
        auto action = ajo::decode_action(job_wire);
        if (!action || !action.value()->is_job()) return;
        recovered.job =
            std::move(static_cast<ajo::AbstractJobObject&>(*action.value()));
        auto cert = crypto::Certificate::from_der(r.blob());
        if (!cert) return;
        recovered.user_certificate = std::move(cert.value());
        recovered.user = gateway::AuthenticatedUser::decode(r);
        recovered.idempotency_key = r.blob();
        recovered.staged_files = uspace::decode_staged(r);
        recovered.consigned_at = r.i64();
        if (!r.ok()) return;
        jobs[record.token] = std::move(recovered);
        break;
      }
      case JournalRecordType::kBatchSubmitted: {
        auto it = jobs.find(record.token);
        if (it == jobs.end()) return;
        std::string path = r.str();
        batch::BatchJobId batch_id = r.u64();
        if (!r.ok()) return;
        it->second.batch_ids[path] = batch_id;
        break;
      }
      case JournalRecordType::kActionState:
        break;  // inspection only; replay reconstructs live state
      case JournalRecordType::kFinalized: {
        auto it = jobs.find(record.token);
        if (it == jobs.end()) return;
        ajo::Outcome outcome = ajo::Outcome::decode(r);
        if (!r.ok()) return;
        it->second.outcome = std::move(outcome);
        break;
      }
      case JournalRecordType::kDeleted:
        jobs.erase(record.token);
        break;
      case JournalRecordType::kXferBundleManifest:
      case JournalRecordType::kXferBundleChunk:
      case JournalRecordType::kXferBundleDone:
      case JournalRecordType::kXferBundleExpired:
        break;  // owned by the transfer engine (xfer::recover_bundles)
      case JournalRecordType::kOwnerClaim:
        break;  // handoff bookkeeping (try_claim), not job state
    }
  });
  std::vector<RecoveredJob> out;
  out.reserve(jobs.size());
  for (auto& [token, job] : jobs) out.push_back(std::move(job));
  return out;
}

util::Status Journal::try_claim(const std::string& claimant,
                                const std::string& supersede) {
  const std::string current = this->claimant();
  if (!current.empty() && current != claimant && current != supersede)
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "journal already claimed by " + current);
  util::ByteWriter w;
  w.str(claimant);
  store_->append({JournalRecordType::kOwnerClaim, 0, w.take()});
  return util::Status::ok_status();
}

std::string Journal::claimant() const {
  std::string current;
  store_->replay([&](const JournalRecord& record) {
    if (record.type != JournalRecordType::kOwnerClaim) return;
    util::ByteReader r{record.payload};
    std::string name = r.str();
    if (r.ok()) current = std::move(name);
  });
  return current;
}

}  // namespace unicore::njs
