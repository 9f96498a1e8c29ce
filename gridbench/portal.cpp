// portal: open-loop independent users arriving Poisson at a fixed
// virtual rate well below the modelled gateway saturation. Most arrivals
// are a distinct identity that connects with a full handshake, opens a
// gateway session, consigns a two-step DAG through
// WorkflowManager::one_run on the token path, polls it like the JMC,
// fetches its stdout file, closes the session and disconnects. About a
// quarter are returning users who reconnect with their resumption
// ticket. The T3E is large, so the batch queue stays near empty and the
// per-request costs (handshake, session broker, AJO codec, dispatch,
// engine events) dominate.
#include <algorithm>

#include "ajo/codec.h"
#include "client/workflow.h"
#include "jobs.h"
#include "util/rng.h"
#include "workloads.h"

namespace gridbench {

using namespace unicore;

namespace {

constexpr double kArrivalsPerVirtualSecond = 20.0;
constexpr double kReturningShare = 0.25;
constexpr sim::Time kPollInterval = sim::sec(2);
constexpr std::int64_t kNodes = 512;

struct Size {
  std::size_t population;
  std::size_t arrivals;
};

Size size_for(const Options& options) {
  return options.tiny ? Size{2'000, 96} : Size{100'000, 1'500};
}

/// One seeded arrival: when, whether it is a returning user (and which
/// idle user it picks if so), and what its two steps do.
struct Arrival {
  sim::Time at = 0;
  bool returning = false;
  std::uint64_t pick = 0;
  double prepare_seconds = 0;  // nominal, 1-GFLOPS reference
  double analyse_seconds = 0;
  std::string arguments;  // the user's input choice, passed to both steps
  std::uint64_t output_bytes = 0;
};

struct Portal {
  JobSite site;
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> identity_order;
  std::size_t next_identity = 0;
  std::vector<UserSlot> users;
  std::vector<std::unique_ptr<client::WorkflowManager>> managers;
  std::vector<std::size_t> idle;
  std::vector<JobRecord> jobs;
  Tracer* tracer = nullptr;
  double queue_depth_max = 0;
  std::uint64_t failures = 0;

  Portal(const Options& options, const Size& size)
      : site(options.seed, size.population,
             batch::make_cray_t3e(kVsite, kNodes)) {}
};

std::vector<client::WorkflowStep> steps_for(const JobRecord& job,
                                            const Arrival& arrival) {
  client::WorkflowStep prepare;
  prepare.name = "prepare";
  prepare.script = "./prepare " + arrival.arguments + "\n";
  prepare.behavior.nominal_seconds = arrival.prepare_seconds;
  client::WorkflowStep analyse;
  analyse.name = "analyse";
  analyse.script = "./analyse " + arrival.arguments + "\n";
  analyse.after = {"prepare"};
  analyse.behavior.nominal_seconds = arrival.analyse_seconds;
  analyse.behavior.stdout_text = job.expected_stdout;
  analyse.behavior.output_files = {{"stdout.txt", arrival.output_bytes}};
  return {prepare, analyse};
}

client::WorkflowParameters parameters_for(const JobRecord& job) {
  client::WorkflowParameters parameters;
  parameters.job_name = "portal-" + std::to_string(job.seq);
  parameters.usite = kUsite;
  parameters.vsite = kVsite;
  parameters.account_group = kAccount;
  parameters.poll_interval = kPollInterval;
  return parameters;
}

/// Ends a user's visit: the session closes, the channel drops (one event
/// later, outside the client's own callback) and the user becomes idle,
/// eligible to return.
void leave(Portal& p, std::size_t slot) {
  client::UnicoreClient& client = *p.users[slot].client;
  auto disconnect = [&p, slot] {
    p.site.grid.engine().after(0, [&p, slot] {
      p.users[slot].client->disconnect();
      p.idle.push_back(slot);
    });
  };
  if (!client.has_session()) {
    disconnect();
    return;
  }
  client.close_session([&p, disconnect](util::Status status) {
    if (!status.ok()) ++p.failures;
    disconnect();
  });
}

void run_job(Portal& p, std::uint64_t seq) {
  JobRecord& job = p.jobs[seq];
  std::size_t slot = job.user;
  job.submit_at = p.site.grid.engine().now();
  client::Future<client::WorkflowRun> run;
  {
    ScopedSpan span(p.tracer, "client.one_run", seq);
    run = p.managers[slot]->one_run(steps_for(job, p.arrivals[seq]),
                                    parameters_for(job), /*wait=*/false);
  }
  run.then([&p, seq, slot](const util::Result<client::WorkflowRun>& consigned) {
    JobRecord& job = p.jobs[seq];
    if (!consigned) {  // counted as an unacked job
      leave(p, slot);
      return;
    }
    job.acked = true;
    job.token = consigned.value().token;
    job.ack_at = p.site.grid.engine().now();
    p.queue_depth_max = std::max(
        p.queue_depth_max, static_cast<double>(p.site.batch().queued_jobs()));
    client::UnicoreClient& client = *p.users[slot].client;
    client.wait_for_completion(
        job.token, kPollInterval,
        [&p, seq, slot](util::Result<ajo::Outcome> outcome) {
          JobRecord& job = p.jobs[seq];
          if (!outcome || !outcome_matches(outcome.value(), job)) {
            ++p.failures;
            leave(p, slot);
            return;
          }
          ScopedSpan span(p.tracer, "client.fetch_output", seq);
          p.users[slot].client->fetch_output(
              job.token, job.result_file,
              [&p, seq, slot](util::Result<uspace::FileBlob> blob) {
                if (!blob || blob.value().size() != p.jobs[seq].result_bytes)
                  ++p.failures;
                else
                  p.jobs[seq].payload_bytes +=
                      static_cast<double>(blob.value().size());
                leave(p, slot);
              });
        });
  });
}

void arrive(Portal& p, std::uint64_t seq) {
  const Arrival& arrival = p.arrivals[seq];
  std::size_t slot;
  if (arrival.returning && !p.idle.empty()) {
    std::size_t pick = arrival.pick % p.idle.size();
    slot = p.idle[pick];
    p.idle[pick] = p.idle.back();
    p.idle.pop_back();
  } else {
    slot = p.users.size();
    std::size_t identity =
        p.identity_order[p.next_identity++ % p.identity_order.size()];
    p.users.push_back({identity, p.site.make_client(identity, 1)});
    p.managers.push_back(
        std::make_unique<client::WorkflowManager>(*p.users[slot].client));
  }
  JobRecord& job = p.jobs[seq];
  job.user = slot;
  client::UnicoreClient& client = *p.users[slot].client;
  ScopedSpan span(p.tracer, "client.connect", seq);
  client.connect(
      p.site.server->route_address(client.user().certificate.subject),
      [&p, seq](util::Status status) {
        if (status.ok()) run_job(p, seq);  // else: counted as unacked
      });
}

}  // namespace

RoundResult run_portal(const Options& options, Tracer* tracer) {
  RoundResult result;
  const Size size = size_for(options);

  double setup_start = wall_now();
  Portal p(options, size);
  util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 23);
  InputDigest digest;
  double t = 0;
  for (std::size_t i = 0; i < size.arrivals; ++i) {
    t += rng.exponential(1.0 / kArrivalsPerVirtualSecond);
    Arrival arrival;
    arrival.at = sim::from_seconds(t);
    arrival.returning = rng.chance(kReturningShare);
    arrival.pick = rng.next();
    arrival.prepare_seconds = 1.0 + 2.0 * rng.uniform();
    arrival.analyse_seconds = 2.0 + 4.0 * rng.uniform();
    arrival.arguments = "--threshold " + std::to_string(rng.uniform());
    for (std::uint64_t k = rng.below(24); k > 0; --k)
      arrival.arguments += " --input run" + std::to_string(rng.below(1u << 20));
    arrival.output_bytes = 1024 + rng.below(16) * 256;
    p.arrivals.push_back(arrival);
    digest.add(static_cast<std::uint64_t>(arrival.at));
    digest.add(arrival.returning ? 1 : 0);
    digest.add(arrival.pick);
    digest.add(static_cast<std::uint64_t>(arrival.prepare_seconds * 1e6));
    digest.add(static_cast<std::uint64_t>(arrival.analyse_seconds * 1e6));
    digest.add(arrival.arguments);
    digest.add(arrival.output_bytes);
  }
  std::size_t offset = rng.below(size.population);
  for (std::size_t i = 0; i < size.arrivals; ++i) {
    p.identity_order.push_back((offset + i * 7919) % size.population);
    digest.add(p.identity_order.back());
  }
  result.input_digest = digest.hex();
  p.jobs.resize(size.arrivals);
  for (std::size_t i = 0; i < size.arrivals; ++i) {
    p.jobs[i].seq = i;
    p.jobs[i].stdout_step = "analyse";
    p.jobs[i].expected_stdout = "portal run " + std::to_string(i) + " ok\n";
    p.jobs[i].processors = {1, 1};
    p.jobs[i].result_file = "stdout.txt";
    p.jobs[i].result_bytes = p.arrivals[i].output_bytes;
  }
  p.tracer = tracer;
  result.setup_s = wall_now() - setup_start;

  sim::Engine& engine = p.site.grid.engine();
  std::uint64_t events_start = engine.events_fired();
  double cpu_start = cpu_now();
  double wall_start = wall_now();
  sim::Time origin = engine.now();
  for (std::size_t i = 0; i < size.arrivals; ++i)
    engine.at(origin + p.arrivals[i].at, [&p, i] { arrive(p, i); });
  {
    ScopedSpan span(tracer, "sim.run");
    engine.run();
  }
  VerifyResult verify = verify_jobs(p.site, p.users, p.jobs, tracer);
  result.wall_s = wall_now() - wall_start;
  result.cpu_s = cpu_now() - cpu_start;
  std::uint64_t events = engine.events_fired() - events_start;

  // Payload: the token-path AJO bytes consigned plus the stdout file the
  // user fetched back (its checksum verified by the transfer engine).
  std::vector<ajo::AbstractJobObject> sample;
  double payload = 0;
  for (JobRecord& job : p.jobs) {
    auto compiled = p.managers[job.user]->compile(
        steps_for(job, p.arrivals[job.seq]), parameters_for(job));
    if (!compiled) continue;
    job.payload_bytes +=
        static_cast<double>(ajo::encode_action(compiled.value()).size());
    if (job.acked) payload += job.payload_bytes;
    if (sample.size() < 256) sample.push_back(std::move(compiled.value()));
  }
  job_end_to_end(p.jobs, verify, result.wall_s, result);
  result.failed += p.failures;
  result.counts = registry_counts(p.site.grid.metrics()->snapshot());

  if (tracer != nullptr) {
    LayerInputs in;
    in.ajos = &sample;
    in.tracer = tracer;
    in.events_fired = events;
    in.payload_bytes = payload;
    in.wall_s = result.wall_s;
    in.cpu_s = result.cpu_s;
    in.queue_depth_max = p.queue_depth_max;
    in.submit_span = "client.one_run";
    in.expect_resumptions = true;
    job_layers(p.site, p.users, p.jobs, verify, std::move(in), result);
  }
  return result;
}

}  // namespace gridbench
