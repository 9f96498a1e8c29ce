// Figure 1 end-to-end: browser/JPA -> https gateway -> NJS -> batch
// subsystem and back, on a single Usite.
#include <gtest/gtest.h>

#include "common/test_env.h"

namespace unicore {
namespace {

using testing::SingleSite;

TEST(SingleSite, ClientConnectsWithMutualAuthentication) {
  SingleSite site;
  auto client = site.make_client();

  util::Status result = util::make_error(util::ErrorCode::kInternal, "unset");
  bool called = false;
  client->connect(site.address(), [&](util::Status status) {
    result = status;
    called = true;
  });
  site.grid.engine().run();

  ASSERT_TRUE(called);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_TRUE(client->connected());
}

TEST(SingleSite, FetchesVerifiedSoftwareBundle) {
  SingleSite site;
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  util::Result<crypto::SoftwareBundle> bundle =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->fetch_bundle("JPA", [&](util::Result<crypto::SoftwareBundle> b) {
    bundle = std::move(b);
  });
  site.grid.engine().run();

  ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();
  EXPECT_EQ(bundle.value().name, "JPA");
  EXPECT_EQ(bundle.value().version, 1u);
}

TEST(SingleSite, FetchesResourcePages) {
  SingleSite site;
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  std::vector<resources::ResourcePage> pages;
  client->fetch_resource_pages(
      [&](util::Result<std::vector<resources::ResourcePage>> result) {
        ASSERT_TRUE(result.ok()) << result.error().to_string();
        pages = std::move(result.value());
      });
  site.grid.engine().run();

  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0].usite, SingleSite::kUsite);
  EXPECT_EQ(pages[0].vsite, SingleSite::kVsite);
  EXPECT_EQ(pages[0].architecture, resources::Architecture::kCrayT3E);
  EXPECT_TRUE(pages[0].has_software(resources::SoftwareKind::kCompiler,
                                    "f90"));
}

TEST(SingleSite, CompileLinkExecuteJobSucceedsEndToEnd) {
  SingleSite site;
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  auto job = testing::make_cle_job(site.user.certificate.subject,
                                   SingleSite::kUsite, SingleSite::kVsite);
  ASSERT_TRUE(job.ok()) << job.error().to_string();

  ajo::JobToken token = 0;
  client->submit(job.value(), [&](util::Result<ajo::JobToken> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    token = result.value();
  });
  site.grid.engine().run();
  ASSERT_NE(token, 0u);

  util::Result<ajo::Outcome> final_outcome =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->wait_for_completion(token, sim::sec(10),
                              [&](util::Result<ajo::Outcome> outcome) {
                                final_outcome = std::move(outcome);
                              });
  site.grid.engine().run();

  ASSERT_TRUE(final_outcome.ok()) << final_outcome.error().to_string();
  const ajo::Outcome& outcome = final_outcome.value();
  EXPECT_EQ(outcome.status, ajo::ActionStatus::kSuccessful)
      << outcome.to_tree_string();
  ASSERT_EQ(outcome.children.size(), 5u);
  for (const ajo::Outcome& child : outcome.children)
    EXPECT_EQ(child.status, ajo::ActionStatus::kSuccessful)
        << child.name << ": " << child.message;

  // The run task's standard output came back through the Outcome.
  const ajo::Outcome* run = nullptr;
  for (const ajo::Outcome& child : outcome.children)
    if (child.name == "run solver") run = &child;
  ASSERT_NE(run, nullptr);
  const auto* detail = std::get_if<ajo::ExecuteOutcome>(&run->detail);
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->stdout_text, "converged after 42 iterations\n");

  // The export landed on the Vsite's Xspace.
  auto* xspace = site.server->njs().xspace(SingleSite::kVsite);
  ASSERT_NE(xspace, nullptr);
  auto* home = xspace->find_volume("home");
  ASSERT_NE(home, nullptr);
  EXPECT_TRUE(home->exists("results/result.dat"));
}

TEST(SingleSite, JmcListsControlsAndFetchesOutput) {
  SingleSite site;
  auto client = site.make_client();
  client->connect(site.address(), [](util::Status) {});
  site.grid.engine().run();

  auto job = testing::make_cle_job(site.user.certificate.subject,
                                   SingleSite::kUsite, SingleSite::kVsite);
  ASSERT_TRUE(job.ok());
  ajo::JobToken token = 0;
  client->submit(job.value(), [&](util::Result<ajo::JobToken> result) {
    token = result.value();
  });
  site.grid.engine().run();

  std::vector<njs::JobSummary> entries;
  client->list([&](util::Result<std::vector<njs::JobSummary>> result) {
    ASSERT_TRUE(result.ok());
    entries = std::move(result.value());
  });
  site.grid.engine().run();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].token, token);
  EXPECT_EQ(entries[0].name, "compile-link-execute");

  // Fetch the result file produced in the Uspace.
  util::Result<uspace::FileBlob> output =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->fetch_output(token, "result.dat",
                       [&](util::Result<uspace::FileBlob> blob) {
                         output = std::move(blob);
                       });
  site.grid.engine().run();
  ASSERT_TRUE(output.ok()) << output.error().to_string();
  EXPECT_EQ(output.value().size(), 1u << 20);

  // Delete the finished job; afterwards queries fail.
  util::Status deleted = util::make_error(util::ErrorCode::kInternal, "x");
  client->control(token, ajo::ControlService::Command::kDelete,
                  [&](util::Status status) { deleted = status; });
  site.grid.engine().run();
  EXPECT_TRUE(deleted.ok()) << deleted.to_string();

  bool query_failed = false;
  client->query(token, ajo::QueryService::Detail::kSummary,
                [&](util::Result<ajo::Outcome> outcome) {
                  query_failed = !outcome.ok();
                });
  site.grid.engine().run();
  EXPECT_TRUE(query_failed);
}

TEST(SingleSite, UnmappedUserIsRejected) {
  SingleSite site;
  // A certificate signed by the CA but with no UUDB mapping at the site.
  crypto::Credential stranger =
      site.grid.create_user("Mallory", "Elsewhere", "m@elsewhere.de");

  client::UnicoreClient::Config config;
  config.host = "ws2.example.de";
  config.user = stranger;
  config.trust = &site.client_trust;
  client::UnicoreClient client(site.grid.engine(), site.grid.network(),
                               site.grid.rng(), config);
  client.connect(site.address(), [](util::Status) {});
  site.grid.engine().run();
  // The channel itself establishes (valid certificate) ...
  ASSERT_TRUE(client.connected());

  auto job = testing::make_cle_job(stranger.certificate.subject,
                                   SingleSite::kUsite, SingleSite::kVsite);
  ASSERT_TRUE(job.ok());
  util::Result<ajo::JobToken> result =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client.submit(job.value(), [&](util::Result<ajo::JobToken> r) {
    result = std::move(r);
  });
  site.grid.engine().run();

  // ... but the gateway's consignment check rejects the unmapped DN.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kPermissionDenied);
}

}  // namespace
}  // namespace unicore
