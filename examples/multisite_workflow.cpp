// Multi-site workflow on the 1999 German testbed (Figure 2 / §5.7):
// a pre-process -> simulate -> post-process pipeline whose parts run at
// three different Usites on three different architectures, with UNICORE
// moving the intermediate data between the Uspaces.
//
// Run: ./multisite_workflow
#include <cstdio>
#include <memory>

#include "client/client.h"
#include "client/job_builder.h"
#include "client/sync_client.h"
#include "grid/grid.h"
#include "grid/testbed.h"

using namespace unicore;

namespace {

ajo::AbstractJobObject build_pipeline(const crypto::DistinguishedName& user) {
  // Pre-processing: mesh generation on the Karlsruhe SP-2.
  client::JobBuilder pre("mesh generation @ RUKA");
  pre.destination("RUKA", "SP2").account_group("project-a");
  client::TaskOptions pre_options;
  pre_options.resources = {8, 1'800, 512, 0, 64};
  pre_options.behavior.nominal_seconds = 30;
  pre_options.behavior.stdout_text = "mesh: 2.1M cells\n";
  pre_options.behavior.output_files = {{"mesh.dat", 24 << 20}};
  pre.script("genmesh", "./genmesh --cells 2.1M > mesh.dat\n", pre_options);

  // Main simulation: CFD on the Jülich T3E.
  client::JobBuilder main_job("cfd simulation @ FZ-Juelich");
  main_job.destination("FZ-Juelich", "T3E-600").account_group("project-a");
  client::TaskOptions cfd_options;
  cfd_options.resources = {256, 14'400, 16'384, 0, 1'024};
  cfd_options.behavior.nominal_seconds = 1'800;
  cfd_options.behavior.stdout_text = "t=1.0s reached, residual 1e-6\n";
  cfd_options.behavior.output_files = {{"field.out", 96 << 20}};
  main_job.script("cfd", "mpprun -n 256 ./cfd mesh.dat\n", cfd_options);

  // Post-processing: visualisation on the Munich VPP700.
  client::JobBuilder post("visualisation @ LRZ");
  post.destination("LRZ", "VPP700").account_group("project-a");
  client::TaskOptions viz_options;
  viz_options.resources = {1, 3'600, 2'048, 0, 256};
  viz_options.behavior.nominal_seconds = 60;
  viz_options.behavior.stdout_text = "rendered 120 frames\n";
  viz_options.behavior.output_files = {{"movie.mpg", 12 << 20}};
  post.script("render", "./render field.out -o movie.mpg\n", viz_options);

  client::JobBuilder root("three-site CFD pipeline");
  root.destination("FZ-Juelich", "");
  root.account_group("project-a");
  auto pre_id = root.add_subjob(pre.build(user).value());
  auto main_id = root.add_subjob(main_job.build(user).value());
  auto post_id = root.add_subjob(post.build(user).value());
  // The dependency files are what UNICORE guarantees to move between the
  // Uspaces at the three sites.
  root.after(pre_id, main_id, {"mesh.dat"});
  root.after(main_id, post_id, {"field.out"});
  return root.build(user).value();
}

}  // namespace

int main() {
  std::printf("== UNICORE multi-site workflow (German testbed, 1999) ==\n\n");

  grid::Grid grid(/*seed=*/1999);
  grid::make_german_testbed(grid);
  for (const std::string& name : grid.sites()) {
    auto* site = grid.site(name);
    std::printf("  %-11s %-28s vsites:", name.c_str(),
                site->address().to_string().c_str());
    for (const std::string& vsite : site->njs().vsites())
      std::printf(" %s", vsite.c_str());
    std::printf("\n");
  }

  crypto::Credential erika =
      grid::add_testbed_user(grid, "Erika Mustermann", "erika@example.de");
  std::printf("\nuser %s mapped at all %zu sites (different logins per "
              "site)\n\n",
              erika.certificate.subject.common_name.c_str(),
              grid.sites().size());

  crypto::TrustStore trust = grid.make_trust_store();
  client::UnicoreClient::Config config;
  config.host = "ws.uni-koeln.de";
  config.user = erika;
  config.trust = &trust;
  client::UnicoreClient client(grid.engine(), grid.network(), grid.rng(),
                               config);
  client::SyncClient sync(grid.engine(), client);
  util::Status connected = sync.connect(grid.site("FZ-Juelich")->address());
  std::printf("connected to FZ-Juelich gateway: %s\n",
              connected.to_string().c_str());

  ajo::AbstractJobObject pipeline =
      build_pipeline(erika.certificate.subject);
  std::printf("pipeline: %zu actions across 3 sites, depth %zu\n\n",
              pipeline.total_actions(), pipeline.depth());

  auto token = sync.submit(pipeline);
  if (!token.ok()) {
    std::printf("consignment rejected: %s\n",
                token.error().to_string().c_str());
    return 1;
  }

  // Poll like the JMC and narrate progress: each query's callback
  // reschedules the next one until the root is terminal.
  sim::Time last_print = 0;
  std::function<void()> poll = [&] {
    client.query(token.value(), ajo::QueryService::Detail::kJobGroups,
                 [&](util::Result<ajo::Outcome> outcome) {
                   if (!outcome.ok()) return;
                   if (grid.engine().now() - last_print > sim::minutes(5)) {
                     last_print = grid.engine().now();
                     std::printf(
                         "t=%7.1f s  root=%s\n",
                         sim::to_seconds(grid.engine().now()),
                         ajo::action_status_name(outcome.value().status));
                   }
                   if (!ajo::is_terminal(outcome.value().status))
                     grid.engine().after(sim::minutes(1), poll);
                 });
  };
  poll();
  grid.engine().run();

  auto final_view = sync.query(token.value(),
                               ajo::QueryService::Detail::kTasks);
  if (final_view.ok())
    std::printf("\nfinal JMC view:\n%s\n",
                final_view.value().to_tree_string().c_str());

  std::printf("per-site consignments: ");
  for (const std::string& name : grid.sites())
    std::printf("%s=%llu ", name.c_str(),
                static_cast<unsigned long long>(
                    grid.site(name)->njs().jobs_consigned()));
  std::printf("\ntotal virtual time: %.1f s\n",
              sim::to_seconds(grid.engine().now()));
  return 0;
}
