// MonitorService end-to-end: the metrics snapshot and per-job trace
// timeline round-trip over the simulated secure channel, for a single
// site and for a distributed multi-site pipeline (the same scenario
// tests/integration/test_multi_site.cpp runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/test_env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace unicore {
namespace {

const std::string* attribute(const obs::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes)
    if (k == key) return &v;
  return nullptr;
}

std::vector<const obs::Span*> children_named(const obs::TraceTimeline& trace,
                                             obs::SpanId parent,
                                             const std::string& name) {
  std::vector<const obs::Span*> out;
  for (const obs::Span* child : trace.children_of(parent))
    if (child->name == name) out.push_back(child);
  return out;
}

struct MonitorSingleSite : public ::testing::Test {
  testing::SingleSite site;
  std::unique_ptr<client::UnicoreClient> client;

  void SetUp() override {
    client = site.make_client();
    client->connect(site.address(), [](util::Status) {});
    site.grid.engine().run();
    ASSERT_TRUE(client->connected());
  }

  ajo::JobToken run_job_to_completion() {
    auto job = testing::make_cle_job(site.user.certificate.subject,
                                     site.kUsite, site.kVsite);
    EXPECT_TRUE(job.ok());
    ajo::JobToken token = 0;
    client->submit(job.value(), [&](util::Result<ajo::JobToken> result) {
      EXPECT_TRUE(result.ok()) << result.error().to_string();
      if (result.ok()) token = result.value();
    });
    site.grid.engine().run();
    EXPECT_NE(token, 0u);

    util::Result<ajo::Outcome> outcome =
        util::make_error(util::ErrorCode::kInternal, "unset");
    client->wait_for_completion(token, sim::sec(15),
                                [&](util::Result<ajo::Outcome> o) {
                                  outcome = std::move(o);
                                });
    site.grid.engine().run();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
        << outcome.value().to_tree_string();
    return token;
  }

  util::Result<obs::MetricsSnapshot> fetch_metrics() {
    util::Result<obs::MetricsSnapshot> snapshot =
        util::make_error(util::ErrorCode::kInternal, "unset");
    client->fetch_metrics([&](util::Result<obs::MetricsSnapshot> result) {
      snapshot = std::move(result);
    });
    site.grid.engine().run();
    return snapshot;
  }

  util::Result<obs::TraceTimeline> fetch_trace(ajo::JobToken token) {
    util::Result<obs::TraceTimeline> trace =
        util::make_error(util::ErrorCode::kInternal, "unset");
    client->fetch_trace(token, [&](util::Result<obs::TraceTimeline> result) {
      trace = std::move(result);
    });
    site.grid.engine().run();
    return trace;
  }
};

TEST_F(MonitorSingleSite, SnapshotCoversEveryLayer) {
  run_job_to_completion();
  auto snapshot = fetch_metrics();
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  const obs::MetricsSnapshot& s = snapshot.value();

  // Gateway: the consignment plus every JMC poll was authenticated.
  EXPECT_GT(s.total("unicore_gateway_auth_total"), 0.0);
  EXPECT_GT(s.total("unicore_gateway_request_latency_seconds"), 0.0);
  EXPECT_GT(s.total("unicore_server_requests_total"), 0.0);

  // NJS: exactly one job consigned and completed at this Usite.
  const obs::MetricPoint* consigned = s.find(
      "unicore_njs_jobs_consigned_total", {{"usite", site.kUsite}});
  ASSERT_NE(consigned, nullptr);
  EXPECT_DOUBLE_EQ(consigned->value, 1.0);
  EXPECT_DOUBLE_EQ(s.total("unicore_njs_jobs_completed_total"), 1.0);
  EXPECT_GT(s.total("unicore_njs_dispatch_latency_seconds"), 0.0);
  EXPECT_GT(s.total("unicore_njs_accounting_cpu_seconds_total"), 0.0);

  // Batch subsystem: the execute tasks went through the queue.
  const obs::MetricPoint* submitted =
      s.find("unicore_batch_jobs_submitted_total",
             {{"usite", site.kUsite}, {"vsite", site.kVsite}});
  ASSERT_NE(submitted, nullptr);
  EXPECT_GT(submitted->value, 0.0);
  EXPECT_GT(s.total("unicore_batch_queue_wait_seconds"), 0.0);
  EXPECT_GT(s.total("unicore_batch_run_seconds"), 0.0);

  // Network fabric: traffic flowed, and the delivered count never
  // exceeds the attempted count.
  double sent = s.total("unicore_net_bytes_sent_total");
  double delivered = s.total("unicore_net_bytes_delivered_total");
  EXPECT_GT(sent, 0.0);
  EXPECT_GT(delivered, 0.0);
  EXPECT_LE(delivered, sent);
  EXPECT_GT(s.total("unicore_channel_handshakes_total"), 0.0);
}

TEST_F(MonitorSingleSite, TraceTimelineCoversJobLifecycle) {
  ajo::JobToken token = run_job_to_completion();
  auto trace = fetch_trace(token);
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  const obs::TraceTimeline& t = trace.value();

  ASSERT_TRUE(t.validate().ok()) << t.validate().to_string() << "\n"
                                 << t.to_string();
  ASSERT_FALSE(t.empty());

  // The root span is the consignment and carries the final status.
  const obs::Span& root = t.spans().front();
  EXPECT_EQ(root.name, "consign");
  EXPECT_EQ(root.parent, 0u);
  EXPECT_TRUE(root.closed());
  const std::string* status = attribute(root, "status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(*status, "SUCCESSFUL");

  // Every lifecycle phase of the compile-link-execute job shows up.
  for (const char* phase :
       {"stage-in", "submit", "incarnate", "queue-wait", "batch-run",
        "stage-out", "outcome"}) {
    EXPECT_NE(t.find_by_name(phase), nullptr)
        << "missing span: " << phase << "\n" << t.to_string();
  }

  // queue-wait and batch-run nest inside their submit span and are
  // ordered in simulation time.
  const obs::Span* queue_wait = t.find_by_name("queue-wait");
  const obs::Span* batch_run = t.find_by_name("batch-run");
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(batch_run, nullptr);
  EXPECT_EQ(queue_wait->parent, batch_run->parent);
  const obs::Span* submit = t.find(queue_wait->parent);
  ASSERT_NE(submit, nullptr);
  EXPECT_EQ(submit->name, "submit");
  EXPECT_LE(queue_wait->end, batch_run->start);
  EXPECT_LE(root.start, submit->start);
  EXPECT_LE(submit->end, root.end);
}

TEST_F(MonitorSingleSite, TraceIsPrivateToTheJobOwner) {
  ajo::JobToken token = run_job_to_completion();

  crypto::Credential other = site.grid.create_user(
      "Max Mustermann", "Other Org", "max@example.de");
  (void)site.grid.map_user(other.certificate.subject, site.kUsite, "ucmax",
                           {"project-a"});
  client::UnicoreClient::Config config;
  config.host = "ws2.example.de";
  config.user = other;
  config.trust = &site.client_trust;
  client::UnicoreClient snoop(site.grid.engine(), site.grid.network(),
                              site.grid.rng(), config);
  snoop.connect(site.address(), [](util::Status) {});
  site.grid.engine().run();
  ASSERT_TRUE(snoop.connected());

  util::Result<obs::TraceTimeline> trace =
      util::make_error(util::ErrorCode::kInternal, "unset");
  snoop.fetch_trace(token, [&](util::Result<obs::TraceTimeline> result) {
    trace = std::move(result);
  });
  site.grid.engine().run();
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(MonitorSingleSite, TraceOfUnknownJobIsNotFound) {
  auto trace = fetch_trace(0xDEAD);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, util::ErrorCode::kNotFound);
}

// --- multi-site ------------------------------------------------------------

struct MonitorTestbed : public ::testing::Test {
  grid::Grid grid{7};
  crypto::Credential user;
  crypto::TrustStore trust;
  std::unique_ptr<client::UnicoreClient> client;

  void SetUp() override {
    grid::make_german_testbed(grid);
    user = grid::add_testbed_user(grid, "Erika Mustermann",
                                  "erika@example.de");
    trust = grid.make_trust_store();

    client::UnicoreClient::Config config;
    config.host = "ws.uni-koeln.de";
    config.user = user;
    config.trust = &trust;
    client = std::make_unique<client::UnicoreClient>(
        grid.engine(), grid.network(), grid.rng(), config);
    client->connect(grid.site("FZ-Juelich")->address(), [](util::Status) {});
    grid.engine().run();
    ASSERT_TRUE(client->connected());
  }

  ajo::AbstractJobObject make_pipeline() {
    client::JobBuilder pre("preprocess");
    pre.destination("RUKA", "SP2").account_group("project-a");
    client::TaskOptions pre_options;
    pre_options.resources = {4, 600, 128, 0, 32};
    pre_options.behavior.nominal_seconds = 10;
    pre_options.behavior.output_files = {{"mesh.dat", 4 << 20}};
    pre.script("generate mesh", "./genmesh input.cfg > mesh.dat\n",
               pre_options);

    client::JobBuilder main_job("main computation");
    main_job.destination("FZ-Juelich", "T3E-600").account_group("project-a");
    client::TaskOptions main_options;
    main_options.resources = {64, 7200, 4096, 0, 256};
    main_options.behavior.nominal_seconds = 120;
    main_options.behavior.output_files = {{"field.out", 16 << 20}};
    main_job.script("simulate", "mpprun -n 64 ./solver mesh.dat\n",
                    main_options);

    client::JobBuilder post("postprocess");
    post.destination("LRZ", "VPP700").account_group("project-a");
    client::TaskOptions post_options;
    post_options.resources = {1, 1200, 512, 0, 64};
    post_options.behavior.nominal_seconds = 15;
    post_options.behavior.output_files = {{"viz.ppm", 2 << 20}};
    post.script("visualize", "./render field.out > viz.ppm\n", post_options);

    const crypto::DistinguishedName& dn = user.certificate.subject;
    client::JobBuilder root("distributed pipeline");
    root.destination("FZ-Juelich", "");
    root.account_group("project-a");
    auto pre_id = root.add_subjob(pre.build(dn).value());
    auto main_id = root.add_subjob(main_job.build(dn).value());
    auto post_id = root.add_subjob(post.build(dn).value());
    root.after(pre_id, main_id, {"mesh.dat"});
    root.after(main_id, post_id, {"field.out"});
    return root.build(dn).value();
  }
};

TEST_F(MonitorTestbed, DistributedPipelineTraceShowsPeerHops) {
  ajo::JobToken token = 0;
  client->submit(make_pipeline(), [&](util::Result<ajo::JobToken> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    token = result.value();
  });
  grid.engine().run();
  ASSERT_NE(token, 0u);

  util::Result<ajo::Outcome> outcome =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->wait_for_completion(token, sim::sec(30),
                              [&](util::Result<ajo::Outcome> o) {
                                outcome = std::move(o);
                              });
  grid.engine().run();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful)
      << outcome.value().to_tree_string();

  util::Result<obs::TraceTimeline> trace =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->fetch_trace(token, [&](util::Result<obs::TraceTimeline> result) {
    trace = std::move(result);
  });
  grid.engine().run();
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  const obs::TraceTimeline& t = trace.value();
  ASSERT_TRUE(t.validate().ok()) << t.validate().to_string() << "\n"
                                 << t.to_string();

  const obs::Span& root = t.spans().front();
  EXPECT_EQ(root.name, "consign");

  // Two sub-jobs hopped to peer Usites over PeerLink; one ran locally.
  auto hops = children_named(t, root.id, "peer-consign");
  auto locals = children_named(t, root.id, "subjob");
  ASSERT_EQ(hops.size(), 2u) << t.to_string();
  ASSERT_EQ(locals.size(), 1u) << t.to_string();

  std::vector<std::string> usites;
  for (const obs::Span* hop : hops) {
    const std::string* usite = attribute(*hop, "usite");
    ASSERT_NE(usite, nullptr);
    usites.push_back(*usite);
    // Each hop recorded the moment the remote NJS accepted the sub-AJO.
    EXPECT_EQ(children_named(t, hop->id, "remote-accept").size(), 1u);
  }
  std::sort(usites.begin(), usites.end());
  EXPECT_EQ(usites, (std::vector<std::string>{"LRZ", "RUKA"}));

  // The dependency sequencing (pre -> main -> post) is visible in the
  // sim-time ordering of the span windows.
  const obs::Span* pre =
      *attribute(*hops[0], "usite") == "RUKA" ? hops[0] : hops[1];
  const obs::Span* post = pre == hops[0] ? hops[1] : hops[0];
  const obs::Span* main_span = locals[0];
  EXPECT_LE(pre->end, main_span->end);
  EXPECT_LE(main_span->end, post->end);
  EXPECT_LT(pre->start, pre->end);
}

TEST_F(MonitorTestbed, EveryRegisteredSeriesIsInTheCatalogue) {
  // Drive every layer: a distributed job (gateway, NJS, batch, peer
  // consigns and chunked transfers into the store-backed peer sites), a
  // portal session, and a reconnect that resumes from the session ticket.
  ajo::JobToken token = 0;
  client->submit(make_pipeline(), [&](util::Result<ajo::JobToken> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    token = result.value();
  });
  grid.engine().run();
  ASSERT_NE(token, 0u);
  bool done = false;
  client->wait_for_completion(token, sim::sec(30),
                              [&](util::Result<ajo::Outcome> outcome) {
                                ASSERT_TRUE(outcome.ok());
                                done = true;
                              });
  grid.engine().run();
  ASSERT_TRUE(done);
  bool session = false;
  client->open_session(0, [&](util::Result<gateway::SessionGrant> grant) {
    session = grant.ok();
  });
  grid.engine().run();
  ASSERT_TRUE(session);
  client->disconnect();
  client->connect(grid.site("FZ-Juelich")->address(), [](util::Status) {});
  grid.engine().run();
  ASSERT_TRUE(client->session_resumed());

  std::ifstream doc(UNICORE_OBSERVABILITY_DOC);
  ASSERT_TRUE(doc) << "cannot read " << UNICORE_OBSERVABILITY_DOC;
  const std::string text{std::istreambuf_iterator<char>(doc),
                         std::istreambuf_iterator<char>()};
  std::set<std::string> documented;
  const std::regex series_name("unicore_[a-z0-9_]+");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), series_name);
       it != std::sregex_iterator(); ++it)
    documented.insert(it->str());

  std::set<std::string> registered;
  for (const obs::MetricPoint& point : grid.metrics()->snapshot().points)
    registered.insert(point.name);
  for (const std::string& name : registered)
    EXPECT_TRUE(documented.count(name) != 0)
        << name << " is registered but missing from docs/OBSERVABILITY.md";
  // The run reached the layers whose series the catalogue used to miss.
  for (const char* name :
       {"unicore_channel_resumptions_total", "unicore_store_chunks",
        "unicore_gateway_sessions_total", "unicore_xfer_open_inbound"})
    EXPECT_TRUE(registered.count(name) != 0) << name << " never registered";
}

TEST_F(MonitorTestbed, SharedRegistryAggregatesAcrossSites) {
  ajo::JobToken token = 0;
  client->submit(make_pipeline(), [&](util::Result<ajo::JobToken> result) {
    token = result.value();
  });
  grid.engine().run();
  ASSERT_NE(token, 0u);

  util::Result<ajo::Outcome> outcome =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->wait_for_completion(token, sim::sec(30),
                              [&](util::Result<ajo::Outcome> o) {
                                outcome = std::move(o);
                              });
  grid.engine().run();
  ASSERT_TRUE(outcome.ok());

  util::Result<obs::MetricsSnapshot> snapshot =
      util::make_error(util::ErrorCode::kInternal, "unset");
  client->fetch_metrics([&](util::Result<obs::MetricsSnapshot> result) {
    snapshot = std::move(result);
  });
  grid.engine().run();
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  const obs::MetricsSnapshot& s = snapshot.value();

  // One MonitorService request to Jülich sees the whole grid: each of
  // the three involved sites consigned exactly one (sub-)job.
  for (const char* usite : {"FZ-Juelich", "RUKA", "LRZ"}) {
    const obs::MetricPoint* consigned =
        s.find("unicore_njs_jobs_consigned_total", {{"usite", usite}});
    ASSERT_NE(consigned, nullptr) << usite;
    EXPECT_DOUBLE_EQ(consigned->value, 1.0) << usite;
  }
  // The WAN fabric recorded the inter-site traffic.
  EXPECT_GT(s.total("unicore_net_bytes_delivered_total"), 1e6);
  EXPECT_GT(s.total("unicore_channel_handshakes_total"), 0.0);

  // The snapshot renders as a Prometheus text dump for offline use.
  std::string text = s.to_prometheus();
  EXPECT_NE(text.find("unicore_njs_jobs_consigned_total"),
            std::string::npos);
  EXPECT_NE(text.find("usite=\"RUKA\""), std::string::npos);
}

}  // namespace
}  // namespace unicore
