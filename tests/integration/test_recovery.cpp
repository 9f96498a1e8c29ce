// Fault-tolerance end-to-end: NJS crash/recovery from the write-ahead
// journal, idempotent peer consignment, batch and peer retry ladders,
// circuit breaking, and the journal-inspect request. Faults are driven
// by the net::FaultInjector timeline harness.
#include <gtest/gtest.h>

#include "client/sync_client.h"
#include "common/test_env.h"
#include "net/faults.h"
#include "njs/journal.h"

namespace unicore {
namespace {

using testing::SingleSite;

struct RecoveryFixture : public ::testing::Test {
  SingleSite site{51};
  std::shared_ptr<njs::JournalStore> store =
      std::make_shared<njs::JournalStore>();
  std::unique_ptr<client::UnicoreClient> async_client;
  std::unique_ptr<client::SyncClient> client;

  void SetUp() override {
    site.server->njs().set_journal(std::make_shared<njs::Journal>(store));
    async_client = site.make_client();
    client = std::make_unique<client::SyncClient>(site.grid.engine(),
                                                  *async_client);
    ASSERT_TRUE(client->connect(site.address()).ok());
  }

  batch::BatchSubsystem& subsystem() {
    return *site.server->njs().subsystem(SingleSite::kVsite);
  }

  ajo::JobToken submit_cle() {
    auto job = testing::make_cle_job(site.user.certificate.subject,
                                     SingleSite::kUsite, SingleSite::kVsite);
    auto token = client->submit(job.value());
    EXPECT_TRUE(token.ok()) << token.error().to_string();
    return token.value();
  }
};

TEST_F(RecoveryFixture, CrashBeforeFirstBatchSubmissionRecovers) {
  ajo::JobToken token = submit_cle();
  // The consign reply raced ahead of the first dispatch: nothing has
  // reached a batch queue yet — the crash lands mid-stage-in.
  ASSERT_EQ(subsystem().stats().jobs_submitted, 0u);

  njs::Njs& njs = site.server->njs();
  njs.crash();
  EXPECT_EQ(njs.active_jobs(), 0u);
  auto recovered = njs.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 1u);
  site.grid.engine().run();

  // The job finished under its original token.
  auto outcome = client->query(token, ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();
  // compile + link + run, each submitted exactly once.
  EXPECT_EQ(subsystem().stats().jobs_submitted, 3u);
  EXPECT_EQ(njs.recoveries(), 1u);
  // Output staged into the durable workspace is fetchable as usual.
  auto blob = client->fetch_output(token, "result.dat");
  EXPECT_TRUE(blob.ok()) << blob.error().to_string();
}

TEST_F(RecoveryFixture, CrashMidBatchRunReattachesWithoutDuplicates) {
  ajo::JobToken token = submit_cle();
  sim::Engine& engine = site.grid.engine();
  // Step until the long "run solver" submission reached the queue, then
  // let it execute for a while before pulling the plug.
  while (subsystem().stats().jobs_submitted < 3 && engine.step()) {
  }
  ASSERT_EQ(subsystem().stats().jobs_submitted, 3u);
  engine.run_until(engine.now() + sim::sec(5));

  njs::Njs& njs = site.server->njs();
  njs.crash();
  ASSERT_TRUE(njs.recover().ok());
  engine.run();

  auto outcome = client->query(token, ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();
  // The already-running batch job was re-attached, not re-submitted.
  EXPECT_EQ(subsystem().stats().jobs_submitted, 3u);
  EXPECT_EQ(njs.recoveries(), 1u);

  // The recovery counters surface through the monitor endpoint.
  auto snapshot = client->fetch_metrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GE(snapshot.value().total("unicore_njs_recoveries_total"), 1.0);

  auto info = client->inspect_journal();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().has_journal);
  EXPECT_GE(info.value().records, 2u);
  EXPECT_EQ(info.value().recoveries, 1u);
}

TEST_F(RecoveryFixture, OfflineVsiteBatchSubmitRetriesWithBackoff) {
  njs::Njs& njs = site.server->njs();
  util::BackoffPolicy patient;
  patient.initial_us = sim::sec(5);
  patient.max_us = sim::sec(60);
  patient.jitter = 0.0;
  patient.max_attempts = 10;
  njs.set_batch_backoff(patient);

  // Offline for 12 s: two submit attempts fail (below the vsite
  // breaker's threshold of three), the third lands after the recovery.
  subsystem().set_offline(true);
  site.grid.engine().at(sim::sec(12), [&] { subsystem().set_offline(false); });

  ajo::JobToken token = submit_cle();
  site.grid.engine().run();

  auto outcome = client->query(token, ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();
  EXPECT_GE(njs.batch_retries(), 1u);
  auto snapshot = client->fetch_metrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GE(snapshot.value().total("unicore_njs_batch_retries_total"), 1.0);
}

TEST_F(RecoveryFixture, DuplicateConsignWithSameKeyReturnsOriginalToken) {
  njs::Njs& njs = site.server->njs();
  gateway::AuthenticatedUser auth{site.user.certificate.subject,
                                  SingleSite::kLogin,
                                  {"project-a"}};
  ajo::AbstractJobObject job;
  job.set_name("dedupe-me");
  job.vsite = SingleSite::kVsite;
  job.user = site.user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("step");
  task->script = "true\n";
  task->set_resource_request({1, 600, 64, 0, 8});
  task->behavior.nominal_seconds = 2;
  job.add(std::move(task));

  util::Bytes key = util::to_bytes("signed-ajo-digest");
  auto first = njs.consign(job, auth, site.user.certificate, nullptr, {}, key);
  ASSERT_TRUE(first.ok());
  site.grid.engine().run();

  // The retried consignment after the job already finished: same token,
  // and the re-registered final handler fires with the stored outcome.
  bool notified = false;
  auto second = njs.consign(
      job, auth, site.user.certificate,
      [&](ajo::JobToken token, const ajo::Outcome& outcome) {
        notified = true;
        EXPECT_EQ(token, first.value());
        EXPECT_EQ(outcome.status, ajo::ActionStatus::kSuccessful);
      },
      {}, key);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(njs.consigns_deduped(), 1u);
  site.grid.engine().run();
  EXPECT_TRUE(notified);
}

TEST_F(RecoveryFixture, JournalInspectNeedsTheV2Feature) {
  (void)submit_cle();
  auto info = client->inspect_journal();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().has_journal);
  EXPECT_GE(info.value().records, 1u);
  EXPECT_EQ(info.value().recoveries, 0u);
}

// ---- two Usites: the peer-link fault paths ------------------------------

struct TwoSites {
  grid::Grid grid{77};
  crypto::Credential user;
  crypto::TrustStore trust;
  server::UsiteServer* fz = nullptr;
  server::UsiteServer* ruka = nullptr;

  TwoSites() {
    fz = &add("FZ-Juelich", "gw.fz-juelich.de",
              batch::make_cray_t3e("T3E-600", 64));
    ruka = &add("RUKA", "gw.ruka.de", batch::make_ibm_sp2("SP2", 32));
    user = grid.create_user("Jane Doe", "Test Org", "jane@example.de");
    (void)grid.map_user(user.certificate.subject, "FZ-Juelich", "ucjdoe",
                        {"project-a"});
    (void)grid.map_user(user.certificate.subject, "RUKA", "rkjdoe",
                        {"project-a"});
    grid.connect_all_peers();
    trust = grid.make_trust_store();
  }

  server::UsiteServer& add(const std::string& name, const std::string& host,
                           batch::SystemConfig system) {
    grid::Grid::SiteSpec spec;
    spec.config.name = name;
    spec.config.gateway_host = host;
    spec.config.port = 4433;
    njs::Njs::VsiteConfig vsite;
    vsite.system = std::move(system);
    spec.vsites.push_back(std::move(vsite));
    return grid.add_site(std::move(spec));
  }

  /// Root job at FZ-Juelich with one sub-job forwarded to RUKA.
  ajo::AbstractJobObject make_forwarded_job(double remote_seconds) {
    client::JobBuilder remote("remote part");
    remote.destination("RUKA", "SP2").account_group("project-a");
    client::TaskOptions options;
    options.resources = {1, 600, 64, 0, 8};
    options.behavior.nominal_seconds = remote_seconds;
    remote.script("remote step", "true\n", options);

    client::JobBuilder root("forwarded pipeline");
    root.destination("FZ-Juelich", "");
    root.account_group("project-a");
    root.add_subjob(remote.build(user.certificate.subject).value());
    return root.build(user.certificate.subject).value();
  }

  std::unique_ptr<client::UnicoreClient> make_client() {
    client::UnicoreClient::Config config;
    config.host = "ws.example.de";
    config.user = user;
    config.trust = &trust;
    return std::make_unique<client::UnicoreClient>(grid.engine(),
                                                   grid.network(), grid.rng(),
                                                   config);
  }
};

TEST(PeerFaults, ConsignRetriesThroughPartition) {
  TwoSites sites;
  util::BackoffPolicy steady;
  steady.initial_us = sim::sec(2);
  steady.max_us = sim::sec(10);
  steady.jitter = 0.0;
  steady.max_attempts = 4;
  sites.fz->set_peer_backoff(steady);

  // Gateways cut off until t=3s: the first consign attempts fail, the
  // backoff ladder carries the job across the outage.
  net::FaultInjector faults(sites.grid.engine(), sites.grid.network());
  faults.partition_at(0, "gw.fz-juelich.de", "gw.ruka.de");
  faults.heal_at(sim::sec(3), "gw.fz-juelich.de", "gw.ruka.de");

  auto async_client = sites.make_client();
  client::SyncClient client(sites.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(sites.fz->address()).ok());
  auto token = client.submit(sites.make_forwarded_job(5));
  ASSERT_TRUE(token.ok()) << token.error().to_string();
  sites.grid.engine().run();

  auto outcome = client.query(token.value(), ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();
  EXPECT_GE(sites.fz->peer_retries(), 1u);
  EXPECT_EQ(sites.ruka->njs().subsystem("SP2")->stats().jobs_submitted, 1u);
}

TEST(PeerFaults, SenderCrashMidPeerConsignDedupesOnReplay) {
  TwoSites sites;
  auto journal_store = std::make_shared<njs::JournalStore>();
  sites.fz->njs().set_journal(std::make_shared<njs::Journal>(journal_store));

  auto async_client = sites.make_client();
  client::SyncClient client(sites.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(sites.fz->address()).ok());
  auto token = client.submit(sites.make_forwarded_job(30));
  ASSERT_TRUE(token.ok());

  // Wait until RUKA accepted the forwarded sub-job, then crash the
  // consignor while the remote part is still running.
  sim::Engine& engine = sites.grid.engine();
  while (sites.ruka->njs().active_jobs() == 0 && engine.step()) {
  }
  ASSERT_GE(sites.ruka->njs().active_jobs(), 1u);

  sites.fz->njs().crash();
  ASSERT_TRUE(sites.fz->njs().recover().ok());
  engine.run();

  // Replay re-forwarded the same signed consignment; RUKA recognised the
  // idempotency key instead of starting a second copy.
  EXPECT_EQ(sites.ruka->njs().consigns_deduped(), 1u);
  EXPECT_EQ(sites.ruka->njs().subsystem("SP2")->stats().jobs_submitted, 1u);
  auto outcome = client.query(token.value(), ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();
  EXPECT_EQ(sites.fz->njs().recoveries(), 1u);
}

TEST(PeerFaults, CircuitBreakerOpensOnPersistentPartition) {
  TwoSites sites;
  util::BackoffPolicy rapid;
  rapid.initial_us = sim::msec(100);
  rapid.max_us = sim::sec(1);
  rapid.jitter = 0.0;
  rapid.max_attempts = 10;
  sites.fz->set_peer_backoff(rapid);
  sites.grid.network().partition("gw.fz-juelich.de", "gw.ruka.de");

  auto async_client = sites.make_client();
  client::SyncClient client(sites.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(sites.fz->address()).ok());
  auto token = client.submit(sites.make_forwarded_job(1));
  ASSERT_TRUE(token.ok());
  sites.grid.engine().run();

  // Three straight transport failures trip the breaker; the fourth
  // attempt is rejected locally and the sub-job fails fast.
  auto outcome = client.query(token.value(), ajo::QueryService::Detail::kTasks);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kNotSuccessful);
  auto snapshot = client.fetch_metrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GE(snapshot.value().total("unicore_peer_circuit_rejections_total"),
            1.0);
  EXPECT_GE(snapshot.value().total("unicore_peer_retries_total"), 2.0);
}

}  // namespace
}  // namespace unicore
