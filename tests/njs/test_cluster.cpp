// NjsCluster (njs/cluster.h): token-space striding, DN-hash consign
// routing, kill + journal handoff with zero duplicate batch
// submissions, handoff arbitration (double handoff refused, restart
// refused after handoff, re-handoff when the adopter dies too), and
// the per-replica gauges.
#include "njs/cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "ajo/tasks.h"
#include "batch/target_system.h"
#include "obs/metrics.h"

namespace unicore::njs {
namespace {

using ajo::ActionStatus;

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Org";
  out.common_name = cn;
  return out;
}

struct ClusterFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{21};
  crypto::CertificateAuthority ca{dn("CA"), rng, kEpoch, 10LL * 365 * 86'400};
  crypto::Credential server_cred = ca.issue_credential(
      dn("njs"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential user_cred = ca.issue_credential(
      dn("Jane"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  NjsCluster cluster{engine, rng, "FZ-Juelich", server_cred, 4};
  gateway::AuthenticatedUser user{dn("Jane"), "ucjane", {"project-a"}};

  void SetUp() override {
    Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("T3E", 32);
    cluster.add_vsite(std::move(config));
  }

  ajo::AbstractJobObject make_job(const std::string& name,
                                  double seconds = 2) {
    // Generous wallclock limit: the batch system scales nominal
    // seconds by the machine's speed factor.
    ajo::AbstractJobObject job;
    job.set_name(name);
    job.vsite = "T3E";
    job.user = dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("main");
    task->script = "echo " + name + "\n";
    task->set_resource_request({1, 7200, 64, 0, 8});
    task->behavior.nominal_seconds = seconds;
    return job.add(std::move(task)), job;
  }

  ajo::JobToken consign(const std::string& name,
                        util::Bytes idempotency_key = {}) {
    auto token = cluster.consign(make_job(name), user, user_cred.certificate,
                                 nullptr, {}, std::move(idempotency_key));
    EXPECT_TRUE(token.ok()) << token.error().to_string();
    return token.ok() ? token.value() : 0;
  }

  batch::BatchSubsystem& subsystem() {
    return *cluster.primary().subsystem("T3E");
  }
};

TEST_F(ClusterFixture, TokensCarryTheMintingReplicaPartition) {
  for (std::size_t i = 0; i < 4; ++i) {
    auto token = cluster.replica(i).consign(make_job("p" + std::to_string(i)),
                                            user, user_cred.certificate);
    ASSERT_TRUE(token.ok());
    EXPECT_EQ(token_partition(token.value()), i);
    EXPECT_EQ(cluster.owner_of(token.value()), i);
    EXPECT_EQ(cluster.replica_for_token(token.value()), &cluster.replica(i));
  }
}

TEST_F(ClusterFixture, HashRoutingIsStableAndSpreads) {
  std::set<std::size_t> used;
  for (int i = 0; i < 64; ++i) {
    std::string name = "job-" + std::to_string(i);
    auto first = cluster.route(user.dn, name);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(cluster.route(user.dn, name), first);  // deterministic
    used.insert(*first);
  }
  // 64 distinct job names over 4 replicas: every replica gets work.
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(ClusterFixture, ConsignLandsOnTheRoutedReplicaAndCompletes) {
  ajo::JobToken token = consign("routed");
  auto owner = cluster.route(user.dn, "routed");
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(token_partition(token), *owner);
  engine.run();
  auto outcome =
      cluster.replica_for_token(token)->query(token,
                                              ajo::QueryService::Detail::kSummary);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ActionStatus::kSuccessful);
}

TEST_F(ClusterFixture, IdempotencyKeyRoutesRetriesBackToAdmittingReplica) {
  util::Bytes key = util::to_bytes("signed-ajo-digest");
  ajo::JobToken first = consign("retry-me", key);
  ajo::JobToken second = consign("retry-me", key);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster.total_jobs_consigned(), 1u);
}

TEST_F(ClusterFixture, KillTriggersAutoHandoffWithoutDuplicateSubmissions) {
  // Consign to every replica directly so one of them certainly owns
  // jobs, then let the batch submissions land.
  std::vector<ajo::JobToken> tokens;
  for (std::size_t i = 0; i < 4; ++i) {
    auto token = cluster.replica(i).consign(
        make_job("long-" + std::to_string(i), /*seconds=*/400), user,
        user_cred.certificate);
    ASSERT_TRUE(token.ok());
    tokens.push_back(token.value());
  }
  while (subsystem().stats().jobs_submitted < 4 && engine.step()) {
  }
  ASSERT_EQ(subsystem().stats().jobs_submitted, 4u);
  engine.run_until(engine.now() + sim::sec(5));

  cluster.kill(1);
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.handoffs(), 1u);
  // Replica 1's job now answers from its adopter under the original
  // token; the running batch job was re-attached, not re-submitted.
  Njs* adopter = cluster.replica_for_token(tokens[1]);
  ASSERT_NE(adopter, nullptr);
  EXPECT_NE(adopter, &cluster.replica(1));
  engine.run();
  for (ajo::JobToken token : tokens) {
    Njs* owner = cluster.replica_for_token(token);
    ASSERT_NE(owner, nullptr);
    auto outcome = owner->query(token, ajo::QueryService::Detail::kTasks);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().status, ActionStatus::kSuccessful)
        << outcome.value().to_tree_string();
  }
  EXPECT_EQ(subsystem().stats().jobs_submitted, 4u);  // zero duplicates
}

TEST_F(ClusterFixture, CrashBetweenJournalAppendAndBatchAckRecovers) {
  // The consign reply raced ahead of the first dispatch: the journal
  // has the consign record but nothing reached a batch queue yet.
  auto token = cluster.replica(2).consign(make_job("early"), user,
                                          user_cred.certificate);
  ASSERT_TRUE(token.ok());
  ASSERT_EQ(subsystem().stats().jobs_submitted, 0u);

  cluster.kill(2);
  Njs* adopter = cluster.replica_for_token(token.value());
  ASSERT_NE(adopter, nullptr);
  engine.run();
  auto outcome =
      adopter->query(token.value(), ajo::QueryService::Detail::kSummary);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().status, ActionStatus::kSuccessful);
  // Submitted exactly once — by the adopter.
  EXPECT_EQ(subsystem().stats().jobs_submitted, 1u);
}

TEST_F(ClusterFixture, DoubleHandoffIsRefused) {
  cluster.set_auto_handoff(false);
  consign("victim");
  cluster.kill(1);
  ASSERT_TRUE(cluster.handoff(1, 2).ok());
  // A second adopter for the same journal loses the claim race.
  auto second = cluster.handoff(1, 3);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, util::ErrorCode::kFailedPrecondition);
  // The journal itself arbitrates: a different claimant is refused,
  // re-claiming under the winner's name stays idempotent.
  EXPECT_FALSE(cluster.journal(1)->try_claim("FZ-Juelich#njs3").ok());
  EXPECT_TRUE(cluster.journal(1)->try_claim("FZ-Juelich#njs2").ok());
}

TEST_F(ClusterFixture, HandoffSanityChecks) {
  EXPECT_FALSE(cluster.handoff(0, 0).ok());        // bad pair
  EXPECT_FALSE(cluster.handoff(1, 2).ok());        // donor still alive
  cluster.set_auto_handoff(false);
  cluster.kill(1);
  cluster.kill(3);
  EXPECT_FALSE(cluster.handoff(1, 3).ok());        // adopter dead
}

TEST_F(ClusterFixture, RestartRefusedOnceThePartitionWasHandedOff) {
  consign("sticky");
  cluster.kill(0);
  ASSERT_EQ(cluster.handoffs(), 1u);
  auto restarted = cluster.restart(0);
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.error().code, util::ErrorCode::kFailedPrecondition);
}

TEST_F(ClusterFixture, AdopterDeathReHandsOffTheAdoptedPartition) {
  auto token = cluster.replica(1).consign(make_job("twice-orphaned"), user,
                                          user_cred.certificate);
  ASSERT_TRUE(token.ok());
  cluster.kill(1);  // auto-handoff: replica 2 adopts partition 1
  ASSERT_EQ(cluster.owner_of(token.value()), 2u);
  cluster.kill(2);  // adopter dies: partitions 1 and 2 both move on
  auto owner = cluster.owner_of(token.value());
  ASSERT_TRUE(owner.has_value());
  EXPECT_TRUE(cluster.alive(*owner));
  engine.run();
  auto outcome = cluster.replica_for_token(token.value())
                     ->query(token.value(), ajo::QueryService::Detail::kSummary);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().status, ActionStatus::kSuccessful);
}

TEST_F(ClusterFixture, DeadPartitionIsUnroutableUntilAdopted) {
  cluster.set_auto_handoff(false);
  ajo::JobToken token = consign("stranded");
  std::size_t minter = token_partition(token);
  cluster.kill(minter);
  EXPECT_EQ(cluster.owner_of(token), std::nullopt);
  EXPECT_EQ(cluster.replica_for_token(token), nullptr);
  std::size_t adopter = (minter + 1) % 4;
  ASSERT_TRUE(cluster.handoff(minter, adopter).ok());
  EXPECT_EQ(cluster.owner_of(token), adopter);
}

TEST_F(ClusterFixture, JournalInfoSumsEveryReplica) {
  for (int i = 0; i < 6; ++i) consign("j" + std::to_string(i));
  JournalInfo info = cluster.journal_info();
  EXPECT_TRUE(info.has_journal);
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < cluster.replica_count(); ++i)
    records += cluster.journal(i)->records();
  EXPECT_GE(records, 6u);
  EXPECT_EQ(info.records, records);
  EXPECT_EQ(info.recoveries, 0u);
}

TEST(JournalInfo, WireBytesArePinned) {
  // u8 has_journal | varint records | u64 recoveries | u64 deduped |
  // u64 retries
  const util::Bytes pinned{0x01, 0xac, 0x02,  // true, 300
                           0, 0, 0, 0, 0, 0, 0, 1,
                           0, 0, 0, 0, 0, 0, 0, 2,
                           0, 0, 0, 0, 0, 0, 0, 3};
  util::ByteWriter w;
  JournalInfo{true, 300, 1, 2, 3}.encode(w);
  EXPECT_EQ(w.bytes(), pinned);

  util::ByteReader r(pinned);
  JournalInfo back = JournalInfo::decode(r);
  ASSERT_TRUE(r.finish().ok());
  EXPECT_TRUE(back.has_journal);
  EXPECT_EQ(back.records, 300u);
  EXPECT_EQ(back.recoveries, 1u);
  EXPECT_EQ(back.consigns_deduped, 2u);
  EXPECT_EQ(back.batch_retries, 3u);
}

TEST_F(ClusterFixture, ReplicaGaugesTrackJobsAndHandoffs) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  cluster.set_metrics(registry);
  consign("g0");
  consign("g1");
  cluster.kill(3);
  cluster.refresh_gauges();
  auto snapshot = registry->snapshot();
  EXPECT_EQ(snapshot.total("unicore_njs_replica_jobs"),
            static_cast<double>(cluster.total_jobs_consigned()));
  EXPECT_EQ(snapshot.total("unicore_njs_replica_handoffs"),
            static_cast<double>(cluster.handoffs()));
}

}  // namespace
}  // namespace unicore::njs
