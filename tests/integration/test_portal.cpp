// Portal-layer integration: gateway session tokens (open / refresh /
// close / expiry / revocation parity with certificates), the
// WorkflowManager one_run surface, and managed job storages with
// quota-driven reaping (docs/PORTAL.md).
#include <gtest/gtest.h>

#include "client/sync_client.h"
#include "client/workflow.h"
#include "common/test_env.h"
#include "gateway/session_broker.h"

namespace unicore {
namespace {

using testing::SingleSite;

// A tiny two-step workflow every one_run test can reuse.
std::vector<client::WorkflowStep> make_steps() {
  client::WorkflowStep prepare;
  prepare.name = "prepare";
  prepare.script = "./prepare\n";
  prepare.behavior.nominal_seconds = 3;
  prepare.behavior.stdout_text = "prepared\n";
  client::WorkflowStep analyse;
  analyse.name = "analyse";
  analyse.script = "./analyse\n";
  analyse.after = {"prepare"};
  analyse.behavior.nominal_seconds = 5;
  analyse.behavior.stdout_text = "analysed\n";
  analyse.behavior.output_files = {{"report.txt", 4096}};
  return {prepare, analyse};
}

client::WorkflowParameters make_parameters() {
  client::WorkflowParameters parameters;
  parameters.job_name = "portal-flow";
  parameters.usite = SingleSite::kUsite;
  parameters.vsite = SingleSite::kVsite;
  parameters.account_group = "project-a";
  parameters.poll_interval = sim::sec(2);
  return parameters;
}

// --- session lifecycle ----------------------------------------------------

TEST(Portal, SessionOpenGrantsMappedLogin) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto grant = client.open_session();
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant.value().login, SingleSite::kLogin);
  EXPECT_FALSE(grant.value().token.empty());
  EXPECT_GT(grant.value().expires_at, site.grid.now_epoch());
  EXPECT_TRUE(async_client->has_session());
  EXPECT_EQ(site.server->session_broker().active(), 1u);
  EXPECT_EQ(site.server->session_broker().opened(), 1u);
}

TEST(Portal, RequestedTtlShortensButNeverExtends) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  std::int64_t now = site.grid.now_epoch();
  auto short_grant = client.open_session(/*requested_ttl=*/60);
  ASSERT_TRUE(short_grant.ok());
  EXPECT_LE(short_grant.value().expires_at, now + 60 + 1);

  // Asking for more than the broker's TTL is clamped, never granted.
  auto greedy = client.open_session(/*requested_ttl=*/1'000'000);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(greedy.value().expires_at,
            site.grid.now_epoch() + site.server->session_broker().ttl() + 1);
}

TEST(Portal, ExpiredTokenRejected) {
  SingleSite site;
  site.server->session_broker().set_ttl(120);
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());

  // Within the TTL the token authenticates.
  ASSERT_TRUE(client.list_storages().ok());

  // Jump past the expiry; the same token must now be refused.
  site.grid.engine().run_until(site.grid.engine().now() + sim::minutes(10));
  auto listing = client.list_storages();
  ASSERT_FALSE(listing.ok());
  EXPECT_EQ(listing.error().code, util::ErrorCode::kAuthenticationFailed);
}

TEST(Portal, RefreshExtendsExpiry) {
  SingleSite site;
  site.server->session_broker().set_ttl(300);
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto grant = client.open_session();
  ASSERT_TRUE(grant.ok());
  std::int64_t first_expiry = grant.value().expires_at;

  site.grid.engine().run_until(site.grid.engine().now() + sim::minutes(4));
  auto refreshed = client.refresh_session();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_GT(refreshed.value().expires_at, first_expiry);
  EXPECT_EQ(site.server->session_broker().refreshed(), 1u);

  // Past the *original* expiry but inside the refreshed one: still valid.
  site.grid.engine().run_until(site.grid.engine().now() + sim::minutes(3));
  EXPECT_TRUE(client.list_storages().ok());
}

TEST(Portal, CloseRevokesToken) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());
  util::Bytes stolen = async_client->session_token();

  ASSERT_TRUE(client.close_session().ok());
  EXPECT_FALSE(async_client->has_session());
  EXPECT_EQ(site.server->session_broker().active(), 0u);

  // Replaying the closed token fails; so does refreshing it.
  async_client->set_session_token(stolen);
  EXPECT_FALSE(client.list_storages().ok());
  EXPECT_FALSE(client.refresh_session().ok());
}

TEST(Portal, RefreshWithoutSessionFailsFast) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  auto refreshed = client.refresh_session();
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.error().code, util::ErrorCode::kFailedPrecondition);
}

// --- revocation parity with the certificate path --------------------------

TEST(Portal, SuspendedUserTokenFailsLikeCertificate) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());
  ASSERT_TRUE(client.list_storages().ok());

  // Site admin flips the UUDB kill switch. The generation bump makes the
  // session stale; re-validation runs the full path and fails.
  ASSERT_TRUE(site.server->gateway()
                  .uudb()
                  .set_suspended(site.user.certificate.subject, true)
                  .ok());

  auto job = testing::make_cle_job(site.user.certificate.subject,
                                   SingleSite::kUsite, SingleSite::kVsite);
  ASSERT_TRUE(job.ok());

  // Token consign fails...
  auto token_submit = client.submit(job.value());
  ASSERT_FALSE(token_submit.ok());

  // ...and so does a certificate-signed consign from a fresh client,
  // with the same error code: the token is never weaker than the cert.
  auto cert_client = site.make_client("other.example.de");
  client::SyncClient cert_sync(site.grid.engine(), *cert_client);
  ASSERT_TRUE(cert_sync.connect(site.address()).ok());
  auto cert_submit = cert_sync.submit(job.value());
  ASSERT_FALSE(cert_submit.ok());
  EXPECT_EQ(token_submit.error().code, cert_submit.error().code);

  // The stale session was dropped server-side, so it cannot be refreshed
  // back to life either.
  EXPECT_FALSE(client.refresh_session().ok());
}

TEST(Portal, RemovedMappingInvalidatesOpenSession) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());

  ASSERT_TRUE(site.server->gateway()
                  .uudb()
                  .remove_mapping(site.user.certificate.subject)
                  .ok());
  auto listing = client.list_storages();
  ASSERT_FALSE(listing.ok());
  // The gateway's UUDB rejection surfaces unchanged — the same
  // kPermissionDenied an unmapped user's certificate-signed consign gets.
  EXPECT_EQ(listing.error().code, util::ErrorCode::kPermissionDenied);
}

TEST(Portal, RevokedCertificateInvalidatesOpenSession) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());

  // CRL distribution after the session was minted: the trust-store
  // generation bump forces the next token validation through the full
  // certificate path, which now sees the revocation.
  site.grid.ca().revoke(site.user.certificate.serial);
  auto crl = site.grid.ca().crl(site.grid.now_epoch());
  ASSERT_TRUE(site.server->gateway().trust_store().add_crl(crl).ok());

  auto listing = client.list_storages();
  ASSERT_FALSE(listing.ok());
  EXPECT_EQ(listing.error().code, util::ErrorCode::kAuthenticationFailed);
  EXPECT_FALSE(client.refresh_session().ok());
}

TEST(Portal, NewUudbMappingRefreshesSessionIdentity) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());
  std::uint64_t fast_before =
      site.server->session_broker().fast_validations();
  ASSERT_TRUE(client.list_storages().ok());
  EXPECT_GT(site.server->session_broker().fast_validations(), fast_before);

  // A UUDB edit in *another* shard no longer touches this session's
  // generation stamp: the fast path stays fast.
  crypto::Credential other =
      site.grid.create_user("Max Mustermann", "Test Org", "max@example.de");
  (void)site.grid.map_user(other.certificate.subject, SingleSite::kUsite,
                           "ucmax", {"project-a"});
  const auto& uudb = site.server->gateway().uudb();
  if (uudb.shard_of(site.user.certificate.subject) !=
      uudb.shard_of(other.certificate.subject)) {
    std::uint64_t fast_after_other =
        site.server->session_broker().fast_validations();
    ASSERT_TRUE(client.list_storages().ok());
    EXPECT_GT(site.server->session_broker().fast_validations(),
              fast_after_other);
  }

  // An edit to the session user's *own* mapping bumps their shard; the
  // session survives (the user is still mapped) but the validation
  // takes the slow path once before the new stamps make it fast again.
  (void)site.grid.map_user(site.user.certificate.subject, SingleSite::kUsite,
                           "ucjdoe", {"project-a", "project-b"});
  std::uint64_t fast_after_edit =
      site.server->session_broker().fast_validations();
  ASSERT_TRUE(client.list_storages().ok());
  EXPECT_EQ(site.server->session_broker().fast_validations(),
            fast_after_edit);
  ASSERT_TRUE(client.list_storages().ok());
  EXPECT_GT(site.server->session_broker().fast_validations(),
            fast_after_edit);
}

TEST(Portal, TokenRidesResumedChannel) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());
  ASSERT_TRUE(client.list_storages().ok());

  // Drop the channel; the reconnect takes the session-resumption fast
  // path and the bearer token — which outlives the channel — keeps
  // authenticating requests.
  async_client->disconnect();
  ASSERT_TRUE(client.connect(site.address()).ok());
  EXPECT_TRUE(async_client->session_resumed());
  EXPECT_TRUE(async_client->has_session());
  EXPECT_TRUE(client.list_storages().ok());
  EXPECT_TRUE(client.refresh_session().ok());
}

TEST(Portal, TokenTransplantsToPooledClient) {
  SingleSite site;
  auto owner = site.make_client();
  client::SyncClient owner_sync(site.grid.engine(), *owner);
  ASSERT_TRUE(owner_sync.connect(site.address()).ok());
  ASSERT_TRUE(owner_sync.open_session().ok());

  // The portal pattern: a pooled channel whose peer certificate belongs
  // to the portal carries another user's bearer token.
  auto pooled = site.make_client("portal.example.de");
  client::SyncClient pooled_sync(site.grid.engine(), *pooled);
  ASSERT_TRUE(pooled_sync.connect(site.address()).ok());
  pooled->set_session_token(owner->session_token());
  ASSERT_TRUE(pooled_sync.list_storages().ok());
}

// --- WorkflowManager / one_run --------------------------------------------

TEST(Workflow, CompileBuildsDag) {
  SingleSite site;
  auto async_client = site.make_client();
  client::WorkflowManager manager(*async_client);

  auto steps = make_steps();
  client::WorkflowStep report;
  report.name = "report";
  report.script = "./report\n";
  report.after = {"prepare", "analyse"};
  steps.push_back(report);

  auto job = manager.compile(steps, make_parameters());
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value().children().size(), 3u);
  EXPECT_EQ(job.value().dependencies().size(), 3u);
  EXPECT_EQ(job.value().usite, SingleSite::kUsite);
  EXPECT_EQ(job.value().vsite, SingleSite::kVsite);
  EXPECT_EQ(job.value().user, site.user.certificate.subject);
}

TEST(Workflow, CompileRejectsEmptyAndMalformedGraphs) {
  SingleSite site;
  auto async_client = site.make_client();
  client::WorkflowManager manager(*async_client);
  auto parameters = make_parameters();

  EXPECT_FALSE(manager.compile({}, parameters).ok());

  auto duplicate = make_steps();
  duplicate.push_back(duplicate.front());  // second "prepare"
  EXPECT_FALSE(manager.compile(duplicate, parameters).ok());

  auto dangling = make_steps();
  dangling[1].after = {"no-such-step"};
  auto result = manager.compile(dangling, parameters);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kInvalidArgument);

  client::WorkflowStep unnamed;
  unnamed.script = "true\n";
  EXPECT_FALSE(manager.compile({unnamed}, parameters).ok());
}

TEST(Workflow, OneRunExecutesDagAndCollectsSteps) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto run = client.one_run(make_steps(), make_parameters());
  ASSERT_TRUE(run.ok());
  EXPECT_NE(run.value().token, 0u);
  EXPECT_TRUE(ajo::is_terminal(run.value().outcome.status));
  ASSERT_EQ(run.value().steps.size(), 2u);
  const auto& prepare = run.value().steps.at("prepare");
  EXPECT_EQ(prepare.status, ajo::ActionStatus::kSuccessful);
  EXPECT_EQ(prepare.exit_code, 0);
  EXPECT_EQ(prepare.stdout_text, "prepared\n");
  EXPECT_EQ(run.value().steps.at("analyse").stdout_text, "analysed\n");

  // The default manager options opened a portal session for the run.
  EXPECT_TRUE(async_client->has_session());
  EXPECT_GE(site.server->session_broker().opened(), 1u);
}

TEST(Workflow, SyncWaitAttachesNoContinuation) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);

  // A continuation the caller attached before blocking still fires.
  client::Promise<int> promise;
  auto future = promise.future();
  int seen = 0;
  future.then([&seen](const util::Result<int>& r) { seen = r.value(); });
  site.grid.engine().after(sim::sec(1), [promise] { promise.set(7); });
  auto result = client.wait(future);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(seen, 7);

  // The engine drains before this future settles: wait reports it, and
  // the later settlement finds nothing of wait's left behind.
  client::Promise<int> late;
  auto unsettled = client.wait(late.future());
  ASSERT_FALSE(unsettled.ok());
  EXPECT_EQ(unsettled.error().code, util::ErrorCode::kInternal);
  late.set(1);
  EXPECT_EQ(seen, 7);
}

TEST(Workflow, OneRunWithoutSessionUsesSignedConsign) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  client::WorkflowManager::Options options;
  options.use_session = false;
  auto run = client.one_run(make_steps(), make_parameters(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(async_client->has_session());
  EXPECT_EQ(site.server->session_broker().opened(), 0u);
}

TEST(Workflow, OneRunCommandLinesRunSequentially) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto run = client.one_run(
      std::vector<std::string>{"./stage-in\n", "./solve\n", "./stage-out\n"},
      make_parameters());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().steps.size(), 3u);
  for (const char* name : {"step-1", "step-2", "step-3"}) {
    ASSERT_TRUE(run.value().steps.count(name)) << name;
    EXPECT_EQ(run.value().steps.at(name).status,
              ajo::ActionStatus::kSuccessful);
  }
}

TEST(Workflow, OneRunReportsFailedStep) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto steps = make_steps();
  steps[0].behavior.exit_code = 3;  // "prepare" fails; "analyse" never runs
  auto run = client.one_run(steps, make_parameters());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().steps.at("prepare").status,
            ajo::ActionStatus::kNotSuccessful);
  EXPECT_EQ(run.value().steps.at("prepare").exit_code, 3);
  EXPECT_EQ(run.value().steps.at("analyse").status,
            ajo::ActionStatus::kNeverRun);
}

TEST(Workflow, OneRunCleanJobStoragesReapsUspace) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  client::WorkflowManager::Options options;
  options.clean_job_storages = true;
  auto run = client.one_run(make_steps(), make_parameters(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().storage_reaped);

  auto storages = client.list_storages();
  ASSERT_TRUE(storages.ok());
  ASSERT_EQ(storages.value().size(), 1u);
  EXPECT_TRUE(storages.value()[0].reaped);
  EXPECT_EQ(storages.value()[0].used_bytes, 0u);
}

// --- managed job storages -------------------------------------------------

TEST(Storage, ListShowsUspacePerSubmission) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());

  auto run = client.one_run(make_steps(), make_parameters());
  ASSERT_TRUE(run.ok());

  auto storages = client.list_storages();
  ASSERT_TRUE(storages.ok());
  ASSERT_EQ(storages.value().size(), 1u);
  const auto& storage = storages.value()[0];
  EXPECT_EQ(storage.token, run.value().token);
  EXPECT_TRUE(storage.terminal);
  EXPECT_FALSE(storage.reaped);
  EXPECT_GT(storage.used_bytes, 0u);
  EXPECT_GT(storage.files, 0u);

  auto files = client.storage_files(run.value().token);
  ASSERT_TRUE(files.ok());
  EXPECT_NE(std::find(files.value().begin(), files.value().end(),
                      "report.txt"),
            files.value().end());
}

TEST(Storage, ReapFreesBytesAndDropsOutputs) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto run = client.one_run(make_steps(), make_parameters());
  ASSERT_TRUE(run.ok());
  auto before = client.fetch_output(run.value().token, "report.txt");
  ASSERT_TRUE(before.ok());

  auto freed = client.reap_storage(run.value().token);
  ASSERT_TRUE(freed.ok());
  EXPECT_GT(freed.value(), 0u);

  // The job record survives for queries; the bytes are gone.
  EXPECT_TRUE(
      client.query(run.value().token, ajo::QueryService::Detail::kSummary)
          .ok());
  auto after = client.fetch_output(run.value().token, "report.txt");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, util::ErrorCode::kNotFound);
}

TEST(Storage, ReapOfRunningJobRefused) {
  SingleSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());
  ASSERT_TRUE(client.open_session().ok());

  client::WorkflowManager manager(*async_client);
  auto job = manager.compile(make_steps(), make_parameters());
  ASSERT_TRUE(job.ok());
  auto token = client.submit(job.value());
  ASSERT_TRUE(token.ok());

  // The job is still in flight: its working storage is not reapable.
  auto freed = client.reap_storage(token.value());
  ASSERT_FALSE(freed.ok());
  EXPECT_EQ(freed.error().code, util::ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(client.wait_for_completion(token.value(), sim::sec(2)).ok());
  EXPECT_TRUE(client.reap_storage(token.value()).ok());
}

TEST(Storage, QuotaPolicyReapsOldestTerminal) {
  SingleSite site;
  // Allow roughly one finished job's uspace; the second completion must
  // push the first one out.
  njs::StoragePolicy policy;
  policy.max_terminal_bytes = 6'000;
  site.server->njs().set_storage_policy(policy);

  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.address()).ok());

  auto first = client.one_run(make_steps(), make_parameters());
  ASSERT_TRUE(first.ok());
  auto second = client.one_run(make_steps(), make_parameters());
  ASSERT_TRUE(second.ok());

  EXPECT_GE(site.server->njs().storages_reaped(), 1u);
  auto storages = client.list_storages();
  ASSERT_TRUE(storages.ok());
  ASSERT_EQ(storages.value().size(), 2u);
  bool first_reaped = false;
  for (const auto& storage : storages.value())
    if (storage.token == first.value().token) first_reaped = storage.reaped;
  EXPECT_TRUE(first_reaped);
}

}  // namespace
}  // namespace unicore
