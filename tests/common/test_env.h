// Shared fixtures: a minimal one-site deployment and helpers used across
// the integration tests and benches.
#pragma once

#include <memory>
#include <string>

#include "batch/target_system.h"
#include "client/client.h"
#include "client/job_builder.h"
#include "grid/grid.h"
#include "grid/testbed.h"

namespace unicore::testing {

/// A small single-Usite deployment: one generic 16-node system, one
/// mapped user, a ready trust store; optionally split behind a firewall
/// or with several NJS replicas.
struct SingleSite {
  static constexpr const char* kUsite = "FZ-Juelich";
  static constexpr const char* kVsite = "T3E-small";
  static constexpr const char* kLogin = "ucjdoe";

  grid::Grid grid;
  crypto::TrustStore client_trust;
  crypto::Credential user;
  server::UsiteServer* server = nullptr;

  explicit SingleSite(std::uint64_t seed = 42, bool split = false,
                      std::size_t njs_replicas = 1)
      : grid(seed) {
    grid::Grid::SiteSpec spec;
    spec.config.name = kUsite;
    spec.config.gateway_host = "gw.fz-juelich.de";
    spec.config.port = 4433;
    spec.config.njs_replicas = njs_replicas;
    if (split) {
      spec.config.njs_host = "njs.fz-juelich.de";
      spec.config.njs_port = 7700;
    }
    njs::Njs::VsiteConfig vsite;
    vsite.system = batch::make_cray_t3e(kVsite, 16);
    spec.vsites.push_back(std::move(vsite));
    server = &grid.add_site(std::move(spec));

    user = grid.create_user("Jane Doe", "Test Org", "jane@example.de");
    (void)grid.map_user(user.certificate.subject, kUsite, kLogin,
                        {"project-a", "project-b"});
    client_trust = grid.make_trust_store();
  }

  std::unique_ptr<client::UnicoreClient> make_client(
      const std::string& host = "ws.example.de") {
    client::UnicoreClient::Config config;
    config.host = host;
    config.user = user;
    config.trust = &client_trust;
    return std::make_unique<client::UnicoreClient>(grid.engine(),
                                                   grid.network(),
                                                   grid.rng(), config);
  }

  net::Address address() const { return server->address(); }
};

/// Builds a canonical compile-link-execute job against `vsite` — the
/// workflow §5.7 says the JPA supports "for new applications".
inline util::Result<ajo::AbstractJobObject> make_cle_job(
    const crypto::DistinguishedName& user, const std::string& usite,
    const std::string& vsite) {
  client::JobBuilder builder("compile-link-execute");
  builder.destination(usite, vsite).account_group("project-a");

  auto source = builder.import_from_workstation(
      "solver.f90", util::to_bytes("      PROGRAM SOLVER\n      END\n"));

  client::TaskOptions compile_options;
  compile_options.resources = {1, 600, 64, 0, 16};
  compile_options.behavior.nominal_seconds = 5;
  auto compile =
      builder.compile("compile solver", "solver.f90", "solver.o",
                      compile_options, {"-O3"});

  client::TaskOptions link_options;
  link_options.resources = {1, 600, 64, 0, 16};
  link_options.behavior.nominal_seconds = 2;
  auto link = builder.link("link solver", {"solver.o"}, "solver",
                           link_options);

  client::TaskOptions run_options;
  run_options.resources = {8, 1200, 256, 0, 64};
  run_options.behavior.nominal_seconds = 60;
  run_options.behavior.stdout_text = "converged after 42 iterations\n";
  run_options.behavior.output_files = {{"result.dat", 1 << 20}};
  auto run = builder.run("run solver", "solver", run_options, {"-n", "8"});

  auto export_task = builder.export_to_xspace("result.dat", "home",
                                              "results/result.dat");

  builder.after(source, compile, {"solver.f90"});
  builder.after(compile, link, {"solver.o"});
  builder.after(link, run, {"solver"});
  builder.after(run, export_task, {"result.dat"});
  return builder.build(user);
}

}  // namespace unicore::testing
