// NJS remote-path unit tests with a scripted fake PeerLink: what
// exactly crosses to a peer Usite (endorsed consignments, staged
// files), and how remote outcomes, rejections, and fetches feed back
// into the job graph — without the server/network layers.
#include <gtest/gtest.h>

#include <deque>

#include "ajo/codec.h"
#include "ajo/tasks.h"
#include "batch/target_system.h"
#include "njs/njs.h"

namespace unicore::njs {
namespace {

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.common_name = cn;
  return out;
}

/// Records every call; completion of remote jobs is driven by the test.
struct FakePeerLink : public PeerLink {
  struct Consigned {
    std::string usite;
    ForwardedConsignment consignment;
    std::function<void(ajo::Outcome)> on_final;
  };
  std::vector<Consigned> consignments;
  std::vector<std::pair<std::string, uspace::FileBlob>> delivered;
  std::map<std::string, uspace::FileBlob> remote_files;
  bool reject_consignments = false;
  ajo::JobToken next_token = 100;

  void consign(const std::string& usite,
               const ForwardedConsignment& consignment,
               std::function<void(util::Result<RemoteJobHandle>)> on_accepted,
               std::function<void(ajo::Outcome)> on_final) override {
    if (reject_consignments) {
      on_accepted(util::make_error(util::ErrorCode::kPermissionDenied,
                                   "no mapping at " + usite));
      return;
    }
    consignments.push_back({usite, consignment, std::move(on_final)});
    on_accepted(RemoteJobHandle{usite, next_token++});
  }

  void deliver_file(const RemoteJobHandle&, const std::string& name,
                    std::shared_ptr<const uspace::FileBlob> blob,
                    std::function<void(util::Status)> done) override {
    delivered.emplace_back(name, *blob);
    done(util::Status::ok_status());
  }

  void fetch_files(
      const RemoteJobHandle&, std::vector<std::string> names,
      std::function<void(util::Result<std::vector<uspace::FileBlob>>)> done)
      override {
    std::vector<uspace::FileBlob> blobs;
    for (const auto& name : names) {
      auto it = remote_files.find(name);
      if (it == remote_files.end()) {
        done(util::make_error(util::ErrorCode::kNotFound, "no " + name));
        return;
      }
      blobs.push_back(it->second);
    }
    done(std::move(blobs));
  }

  void control(const RemoteJobHandle&, ajo::ControlService::Command,
               std::function<void(util::Status)> done) override {
    done(util::Status::ok_status());
  }

  /// Completes the i-th consigned remote job.
  void finish(std::size_t i, ajo::ActionStatus status) {
    ajo::Outcome outcome;
    outcome.status = status;
    outcome.type = ajo::ActionType::kAbstractJobObject;
    consignments.at(i).on_final(std::move(outcome));
  }
};

struct PeerLinkFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{71};
  crypto::CertificateAuthority ca{dn("CA"), rng, kEpoch, 10LL * 365 * 86'400};
  crypto::Credential server_cred = ca.issue_credential(
      dn("njs-home"), rng, kEpoch, 365 * 86'400, crypto::kUsageServerAuth);
  crypto::Credential user_cred = ca.issue_credential(
      dn("Jane"), rng, kEpoch, 365 * 86'400, crypto::kUsageClientAuth);
  Njs njs{engine, util::Rng(72), "Home", server_cred};
  FakePeerLink link;
  gateway::AuthenticatedUser user{dn("Jane"), "uj", {"g"}};

  void SetUp() override {
    Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("V", 8);
    njs.add_vsite(std::move(config));
    njs.set_peer_link(&link);
  }

  ajo::AbstractJobObject remote_wrapper(
      std::vector<std::pair<std::string, std::string>> dep_files = {}) {
    // Root at Home with one producer task and one remote sub-job at
    // "Away"; dep_files lists (edge file, produced-by-task) pairs.
    ajo::AbstractJobObject job;
    job.set_name("wrapper");
    job.usite = "Home";
    job.vsite = "V";
    job.user = dn("Jane");

    auto producer = std::make_unique<ajo::ExecuteScriptTask>();
    producer->set_name("producer");
    producer->script = "true\n";
    producer->set_resource_request({1, 600, 64, 0, 8});
    producer->behavior.nominal_seconds = 1;
    for (auto& [file, by] : dep_files)
      producer->behavior.output_files.emplace_back(file, 128);
    ajo::ActionId producer_id = job.add(std::move(producer));

    auto sub = std::make_unique<ajo::AbstractJobObject>();
    sub->set_name("remote part");
    sub->usite = "Away";
    sub->vsite = "W";
    sub->user = dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->script = "true\n";
    sub->add(std::move(task));
    ajo::ActionId sub_id = job.add(std::move(sub));

    std::vector<std::string> files;
    for (auto& [file, by] : dep_files) files.push_back(file);
    job.add_dependency(producer_id, sub_id, files);
    return job;
  }
};

TEST_F(PeerLinkFixture, ForwardedConsignmentIsEndorsedAndCarriesStagedFiles) {
  auto token = njs.consign(remote_wrapper({{"stage.dat", "producer"}}), user,
                           user_cred.certificate);
  ASSERT_TRUE(token.ok());
  engine.run();

  ASSERT_EQ(link.consignments.size(), 1u);
  const ForwardedConsignment& c = link.consignments[0].consignment;
  EXPECT_EQ(link.consignments[0].usite, "Away");
  EXPECT_EQ(c.job.name(), "remote part");
  EXPECT_EQ(c.user_certificate, user_cred.certificate);
  EXPECT_EQ(c.consignor_certificate, server_cred.certificate);
  // The endorsement verifies under the home server's key.
  EXPECT_TRUE(crypto::verify_message(
      server_cred.key.pub,
      ForwardedConsignment::signing_input(c.job, c.user_certificate),
      c.signature));
  // The dependency file travels with the consignment.
  ASSERT_EQ(c.staged_files.size(), 1u);
  EXPECT_EQ(c.staged_files[0].first, "stage.dat");
  EXPECT_EQ(c.staged_files[0].second.size(), 128u);
}

TEST_F(PeerLinkFixture, RemoteOutcomeCompletesTheWrapper) {
  bool done = false;
  ajo::Outcome final_outcome;
  auto token = njs.consign(remote_wrapper(), user, user_cred.certificate,
                           [&](ajo::JobToken, const ajo::Outcome& o) {
                             done = true;
                             final_outcome = o;
                           });
  ASSERT_TRUE(token.ok());
  engine.run();
  ASSERT_FALSE(done);  // remote part still "running"
  ASSERT_EQ(link.consignments.size(), 1u);

  link.finish(0, ajo::ActionStatus::kSuccessful);
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(final_outcome.status, ajo::ActionStatus::kSuccessful);
}

TEST_F(PeerLinkFixture, RemoteFailureMarksWrapperUnsuccessful) {
  bool done = false;
  ajo::Outcome final_outcome;
  (void)njs.consign(remote_wrapper(), user, user_cred.certificate,
                    [&](ajo::JobToken, const ajo::Outcome& o) {
                      done = true;
                      final_outcome = o;
                    });
  engine.run();
  link.finish(0, ajo::ActionStatus::kNotSuccessful);
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(final_outcome.status, ajo::ActionStatus::kNotSuccessful);
}

TEST_F(PeerLinkFixture, RejectedConsignmentFailsTheSubjob) {
  link.reject_consignments = true;
  bool done = false;
  ajo::Outcome final_outcome;
  (void)njs.consign(remote_wrapper(), user, user_cred.certificate,
                    [&](ajo::JobToken, const ajo::Outcome& o) {
                      done = true;
                      final_outcome = o;
                    });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(final_outcome.status, ajo::ActionStatus::kNotSuccessful);
  const ajo::Outcome* sub = nullptr;
  for (const auto& child : final_outcome.children)
    if (child.name == "remote part") sub = &child;
  ASSERT_NE(sub, nullptr);
  EXPECT_NE(sub->message.find("rejected"), std::string::npos);
}

TEST_F(PeerLinkFixture, RemotePredecessorFilesFetchedForLocalSuccessor) {
  // remote sub-job -> local task, with a dependency file produced away.
  ajo::AbstractJobObject job;
  job.set_name("fetch case");
  job.usite = "Home";
  job.vsite = "V";
  job.user = dn("Jane");

  auto sub = std::make_unique<ajo::AbstractJobObject>();
  sub->set_name("remote producer");
  sub->usite = "Away";
  sub->vsite = "W";
  sub->user = dn("Jane");
  auto remote_task = std::make_unique<ajo::ExecuteScriptTask>();
  remote_task->script = "true\n";
  sub->add(std::move(remote_task));
  ajo::ActionId sub_id = job.add(std::move(sub));

  auto consumer = std::make_unique<ajo::UserTask>();
  consumer->set_name("consumer");
  consumer->executable = "result.bin";  // needs the fetched file
  consumer->set_resource_request({1, 600, 64, 0, 8});
  consumer->behavior.nominal_seconds = 1;
  ajo::ActionId consumer_id = job.add(std::move(consumer));
  job.add_dependency(sub_id, consumer_id, {"result.bin"});

  link.remote_files["result.bin"] = uspace::FileBlob::synthetic(256, 7);
  bool done = false;
  ajo::Outcome final_outcome;
  (void)njs.consign(job, user, user_cred.certificate,
                    [&](ajo::JobToken, const ajo::Outcome& o) {
                      done = true;
                      final_outcome = o;
                    });
  engine.run();
  link.finish(0, ajo::ActionStatus::kSuccessful);
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(final_outcome.status, ajo::ActionStatus::kSuccessful)
      << final_outcome.to_tree_string();
}

TEST_F(PeerLinkFixture, MissingRemoteFileFailsTheSuccessor) {
  ajo::AbstractJobObject job;
  job.set_name("missing fetch");
  job.usite = "Home";
  job.vsite = "V";
  job.user = dn("Jane");
  auto sub = std::make_unique<ajo::AbstractJobObject>();
  sub->set_name("remote producer");
  sub->usite = "Away";
  sub->vsite = "W";
  sub->user = dn("Jane");
  auto remote_task = std::make_unique<ajo::ExecuteScriptTask>();
  remote_task->script = "true\n";
  sub->add(std::move(remote_task));
  ajo::ActionId sub_id = job.add(std::move(sub));
  auto consumer = std::make_unique<ajo::ExecuteScriptTask>();
  consumer->set_name("consumer");
  consumer->script = "true\n";
  ajo::ActionId consumer_id = job.add(std::move(consumer));
  job.add_dependency(sub_id, consumer_id, {"never-made.bin"});

  bool done = false;
  ajo::Outcome final_outcome;
  (void)njs.consign(job, user, user_cred.certificate,
                    [&](ajo::JobToken, const ajo::Outcome& o) {
                      done = true;
                      final_outcome = o;
                    });
  engine.run();
  link.finish(0, ajo::ActionStatus::kSuccessful);
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(final_outcome.find(consumer_id)->status,
            ajo::ActionStatus::kNotSuccessful);
  EXPECT_NE(final_outcome.find(consumer_id)->message.find("never-made.bin"),
            std::string::npos);
}

}  // namespace
}  // namespace unicore::njs
