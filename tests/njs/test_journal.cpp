// The write-ahead job journal in isolation: record round-trips, the
// recover() fold, deletion, corrupted-record tolerance, and the durable
// workspaces handed out by the store.
#include "njs/journal.h"

#include <gtest/gtest.h>

#include "ajo/tasks.h"

namespace unicore::njs {
namespace {

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Org";
  out.common_name = cn;
  return out;
}

struct JournalFixture : public ::testing::Test {
  util::Rng rng{21};
  crypto::CertificateAuthority ca{dn("CA"), rng, kEpoch, 10LL * 365 * 86'400};
  crypto::Credential user_cred = ca.issue_credential(
      dn("Jane"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  std::shared_ptr<JournalStore> store =
      std::make_shared<JournalStore>();
  Journal journal{store};
  gateway::AuthenticatedUser user{dn("Jane"), "ucjane", {"project-a"}};

  ajo::AbstractJobObject make_job(const std::string& name) {
    ajo::AbstractJobObject job;
    job.set_name(name);
    job.vsite = "T3E";
    job.user = dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("step");
    task->script = "echo hi\n";
    task->set_resource_request({1, 600, 64, 0, 8});
    job.add(std::move(task));
    return job;
  }
};

TEST_F(JournalFixture, ConsignRecordRoundTrips) {
  ajo::AbstractJobObject job = make_job("roundtrip");
  std::vector<std::pair<std::string, uspace::FileBlob>> staged;
  staged.emplace_back("input.dat", uspace::FileBlob::from_string("abc"));
  journal.record_consigned(7, job, user, user_cred.certificate,
                           util::to_bytes("key-7"), staged, sim::sec(3));

  auto recovered = journal.recover();
  ASSERT_EQ(recovered.size(), 1u);
  const auto& image = recovered[0];
  EXPECT_EQ(image.token, 7u);
  EXPECT_EQ(image.job.name(), "roundtrip");
  EXPECT_EQ(image.job.children().size(), 1u);
  EXPECT_EQ(image.user.login, "ucjane");
  EXPECT_EQ(image.user_certificate.subject, dn("Jane"));
  EXPECT_EQ(util::to_string(image.idempotency_key), "key-7");
  ASSERT_EQ(image.staged_files.size(), 1u);
  EXPECT_EQ(image.staged_files[0].first, "input.dat");
  EXPECT_EQ(image.consigned_at, sim::sec(3));
  EXPECT_FALSE(image.outcome.has_value());
  EXPECT_TRUE(image.batch_ids.empty());
}

TEST_F(JournalFixture, FoldAccumulatesBatchIdsAndOutcome) {
  ajo::AbstractJobObject job = make_job("folded");
  journal.record_consigned(1, job, user, user_cred.certificate, {}, {}, 0);
  journal.record_batch_submitted(1, "g0/a1", 4001);
  journal.record_batch_submitted(1, "g0/a2", 4002);
  journal.record_action_state(1, "g0/a1", ajo::ActionStatus::kRunning);

  ajo::Outcome outcome;
  outcome.status = ajo::ActionStatus::kSuccessful;
  outcome.name = "folded";
  journal.record_finalized(1, outcome);

  auto recovered = journal.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].batch_ids.size(), 2u);
  EXPECT_EQ(recovered[0].batch_ids.at("g0/a1"), 4001u);
  EXPECT_EQ(recovered[0].batch_ids.at("g0/a2"), 4002u);
  ASSERT_TRUE(recovered[0].outcome.has_value());
  EXPECT_EQ(recovered[0].outcome->status, ajo::ActionStatus::kSuccessful);
}

TEST_F(JournalFixture, DeletedJobIsNotResurrected) {
  journal.record_consigned(1, make_job("keep"), user, user_cred.certificate,
                           {}, {}, 0);
  journal.record_consigned(2, make_job("drop"), user, user_cred.certificate,
                           {}, {}, 0);
  journal.record_deleted(2);

  auto recovered = journal.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].token, 1u);
  EXPECT_EQ(recovered[0].job.name(), "keep");
}

TEST_F(JournalFixture, CorruptedRecordIsSkippedNotFatal) {
  journal.record_consigned(1, make_job("good"), user, user_cred.certificate,
                           {}, {}, 0);
  // A consign record whose payload is garbage: recovery must drop that
  // job, not throw or poison the rest of the log.
  JournalRecord bad;
  bad.type = JournalRecordType::kConsigned;
  bad.token = 2;
  bad.payload = util::to_bytes("\x01trunc");
  store->append(bad);
  journal.record_consigned(3, make_job("also-good"), user,
                           user_cred.certificate, {}, {}, 0);

  auto recovered = journal.recover();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].token, 1u);
  EXPECT_EQ(recovered[1].token, 3u);
}

TEST_F(JournalFixture, OrphanRecordsWithoutConsignAreIgnored) {
  journal.record_batch_submitted(9, "g0/a1", 77);
  ajo::Outcome outcome;
  journal.record_finalized(9, outcome);
  EXPECT_TRUE(journal.recover().empty());
}

TEST_F(JournalFixture, RecordCountAndTypeNames) {
  EXPECT_EQ(journal.records(), 0u);
  journal.record_consigned(1, make_job("n"), user, user_cred.certificate, {},
                           {}, 0);
  journal.record_deleted(1);
  EXPECT_EQ(journal.records(), 2u);
  EXPECT_STREQ(journal_record_type_name(JournalRecordType::kConsigned),
               "consigned");
  EXPECT_STREQ(journal_record_type_name(JournalRecordType::kDeleted),
               "deleted");
}

TEST_F(JournalFixture, WorkspaceSurvivesAcrossLookups) {
  auto first = journal.workspace("job-0001", 0);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(
      first->write("state.txt", uspace::FileBlob::from_string("half-done"))
          .ok());
  // The same directory name returns the *same* durable Uspace — this is
  // what lets job files outlive an NJS process crash.
  auto second = journal.workspace("job-0001", 0);
  EXPECT_EQ(first.get(), second.get());
  auto blob = second->read("state.txt");
  ASSERT_TRUE(blob.ok());
  ASSERT_NE(blob.value().bytes(), nullptr);
  EXPECT_EQ(util::to_string(*blob.value().bytes()), "half-done");
  EXPECT_NE(journal.workspace("job-0002", 0).get(), first.get());
}

}  // namespace
}  // namespace unicore::njs
