#include "jobs.h"

#include <algorithm>
#include <optional>
#include <variant>

namespace gridbench {

using namespace unicore;

JobSite::JobSite(std::uint64_t seed, std::size_t population,
                 batch::SystemConfig system)
    : grid(seed) {
  grid::Grid::SiteSpec spec;
  spec.config.name = kUsite;
  spec.config.gateway_host = "gw.fz-juelich.de";
  spec.config.port = 4433;
  spec.config.gateway_replicas = 2;
  spec.config.njs_replicas = 2;
  njs::Njs::VsiteConfig vsite;
  vsite.system = std::move(system);
  spec.vsites.push_back(std::move(vsite));
  server = &grid.add_site(std::move(spec));
  // Modelled, not measured: each replica is a serial server with these
  // per-request costs (docs/SCALING.md).
  server->set_gateway_service_time(sim::msec(2));
  server->set_njs_admission_cost(sim::msec(3));

  identities.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    std::string id = std::to_string(i);
    crypto::Credential user = grid.create_user(
        "Grid User " + id, "Bench Org", "u" + id + "@example.de");
    (void)grid.map_user(user.certificate.subject, kUsite, "uc" + id,
                        {kAccount});
    identities.push_back(std::move(user));
  }
  trust = grid.make_trust_store();
}

batch::BatchSubsystem& JobSite::batch() {
  return *server->njs().subsystem(kVsite);
}

std::unique_ptr<client::UnicoreClient> JobSite::make_client(
    std::size_t index, std::size_t transfer_streams) {
  client::UnicoreClient::Config config;
  config.host = "ws" + std::to_string(index) + ".example.de";
  config.user = identities[index];
  config.trust = &trust;
  config.transfer_streams = transfer_streams;
  return std::make_unique<client::UnicoreClient>(
      grid.engine(), grid.network(), grid.rng(), std::move(config));
}

// --- verification ------------------------------------------------------------

bool outcome_matches(const ajo::Outcome& root, const JobRecord& job) {
  if (root.status != ajo::ActionStatus::kSuccessful) return false;
  for (const auto& child : root.children) {
    if (child.name != job.stdout_step) continue;
    const auto* exec = std::get_if<ajo::ExecuteOutcome>(&child.detail);
    return exec != nullptr && child.status == ajo::ActionStatus::kSuccessful &&
           exec->stdout_text == job.expected_stdout;
  }
  return false;
}

sim::Time terminal_time(const ajo::Outcome& outcome) {
  sim::Time latest = outcome.finished_at;
  for (const auto& child : outcome.children)
    latest = std::max(latest, terminal_time(child));
  return latest;
}

VerifyResult verify_jobs(JobSite& site, std::vector<UserSlot>& users,
                         const std::vector<JobRecord>& jobs, Tracer* tracer) {
  VerifyResult out;
  sim::Engine& engine = site.grid.engine();
  std::vector<std::vector<std::size_t>> by_user(users.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].acked) by_user[jobs[i].user].push_back(i);
  std::vector<std::optional<ajo::Outcome>> outcomes(jobs.size());
  std::vector<bool> file_ok(jobs.size(), false);

  auto query_all = [&](std::size_t user) {
    client::UnicoreClient& client = *users[user].client;
    for (std::size_t index : by_user[user]) {
      const JobRecord& job = jobs[index];
      {
        ScopedSpan span(tracer, "client.query", job.seq);
        client.query(job.token, ajo::QueryService::Detail::kTasks,
                     [&outcomes, index](util::Result<ajo::Outcome> outcome) {
                       if (outcome) outcomes[index] = std::move(outcome.value());
                     });
      }
      ScopedSpan span(tracer, "client.fetch_output", job.seq);
      client.fetch_output(
          job.token, job.result_file,
          [&file_ok, &job, index](util::Result<uspace::FileBlob> blob) {
            file_ok[index] = blob && blob.value().size() == job.result_bytes;
          });
    }
  };

  double wall_start = wall_now();
  sim::Time virtual_start = engine.now();
  for (std::size_t user = 0; user < users.size(); ++user) {
    if (by_user[user].empty()) continue;
    client::UnicoreClient& client = *users[user].client;
    if (client.connected()) {
      query_all(user);
      continue;
    }
    ScopedSpan span(tracer, "client.connect");
    client.connect(site.server->route_address(client.user().certificate.subject),
                   [&query_all, user](util::Status status) {
                     if (status.ok()) query_all(user);
                   });
  }
  {
    ScopedSpan span(tracer, "sim.run");
    engine.run();
  }
  out.wall_s = wall_now() - wall_start;
  out.virtual_s = engine.now() - virtual_start;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].acked) continue;
    if (!outcomes[i] || !outcome_matches(*outcomes[i], jobs[i]) ||
        !file_ok[i]) {
      ++out.failed;
      continue;
    }
    const ajo::Outcome& root = *outcomes[i];
    ++out.verified;
    sim::Time finished = terminal_time(root);
    out.turnaround_s.push_back(sim::to_seconds(finished - root.submitted_at));
    out.last_finish = std::max(out.last_finish, finished);
    for (std::size_t k = 0;
         k < root.children.size() && k < jobs[i].processors.size(); ++k) {
      const ajo::Outcome& task = root.children[k];
      out.batch_stream.push_back(
          {task.submitted_at, jobs[i].processors[k],
           sim::to_seconds(task.finished_at - task.started_at)});
    }
  }
  return out;
}

void job_end_to_end(const std::vector<JobRecord>& jobs,
                    const VerifyResult& verify, double timed_wall_s,
                    RoundResult& result) {
  std::vector<double> consign_ms;
  double payload = 0;
  sim::Time first_submit = -1;
  for (const JobRecord& job : jobs) {
    if (first_submit < 0 || job.submit_at < first_submit)
      first_submit = job.submit_at;
    if (!job.acked) continue;
    consign_ms.push_back(static_cast<double>(job.ack_at - job.submit_at) /
                         1e3);
    payload += job.payload_bytes;
  }
  double verified = static_cast<double>(verify.verified);
  double makespan_s = sim::to_seconds(verify.last_finish - first_submit);

  result.rates["jobs_per_s"] = verified / timed_wall_s;
  result.rates["payload_MBps"] = payload / 1e6 / timed_wall_s;
  result.rates["restage_files_per_s"] = verified / verify.wall_s;
  result.virtual_metrics["v_consign_p50_ms"] = quantile(consign_ms, 0.50);
  result.virtual_metrics["v_consign_p99_ms"] = quantile(consign_ms, 0.99);
  result.virtual_metrics["v_turnaround_p50_s"] =
      quantile(verify.turnaround_s, 0.50);
  result.virtual_metrics["v_turnaround_p99_s"] =
      quantile(verify.turnaround_s, 0.99);
  result.virtual_metrics["v_makespan_s"] = makespan_s;
  result.virtual_metrics["v_stage_MBps"] = payload / 1e6 / makespan_s;
  result.virtual_metrics["v_restage_s"] = sim::to_seconds(verify.virtual_s);
  result.attempted += jobs.size();
  for (const JobRecord& job : jobs)
    if (!job.acked) ++result.failed;
  result.failed += verify.failed;
}

// --- per-layer readout ----------------------------------------------------------

void job_layers(JobSite& site, const std::vector<UserSlot>& users,
                const std::vector<JobRecord>& jobs, const VerifyResult& verify,
                LayerInputs in, RoundResult& result) {
  in.grid = &site.grid;
  in.trust = &site.trust;
  for (const UserSlot& user : users) {
    in.requests_sent += user.client->requests_sent();
    in.requests_failed += user.client->requests_failed();
    if (in.users.size() < 256) in.users.push_back(site.identities[user.identity]);
  }
  for (const JobRecord& job : jobs) {
    in.message_sizes.push_back(static_cast<std::size_t>(job.payload_bytes));
    if (in.message_sizes.size() == 512) break;
  }
  in.cluster = &site.server->njs_cluster();
  in.batch = &site.batch();
  in.batch_stream = verify.batch_stream;
  in.jobs = static_cast<double>(verify.verified);
  read_layers(in, result.layers);
}

}  // namespace gridbench
