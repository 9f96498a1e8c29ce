// campaign: a closed-loop parameter sweep. 64 submitters each wait for
// their consign ack before sending the next two-task DAG; every 4 jobs a
// submitter takes a fresh identity and connects again (full handshake,
// auth-cache miss). Mixed node counts and exponential runtimes keep the
// T3E's batch queue thousands deep, so the EASY-backfill walk and the
// per-consign certificate/AJO work dominate; xfer and store stay idle.
#include <algorithm>
#include <cmath>
#include <limits>

#include "ajo/codec.h"
#include "client/job_builder.h"
#include "jobs.h"
#include "util/rng.h"
#include "workloads.h"

namespace gridbench {

using namespace unicore;

namespace {

constexpr std::size_t kSubmitters = 64;
constexpr std::size_t kJobsPerIdentity = 4;
constexpr std::int64_t kProcessorMix[] = {4, 8, 16};
constexpr double kGflops = 0.6;  // T3E per-processor speed (runtime scale)

struct Size {
  std::size_t population;
  std::size_t jobs;
  std::int64_t nodes;
};

Size size_for(const Options& options) {
  return options.tiny ? Size{2'000, 256, 32} : Size{100'000, 4'000, 128};
}

/// The seeded inputs of one sweep point.
struct PointSpec {
  std::int64_t simulate_processors;
  double simulate_seconds;  // nominal, 1-GFLOPS reference
  std::int64_t reduce_processors;
  double reduce_seconds;
  std::string parameters;  // the sweep point's command-line arguments
  /// Submitter think time after this point's ack: it breaks the lockstep
  /// a closed loop settles into behind deterministic service times.
  sim::Time think;
  std::uint64_t result_bytes;  // reduce's result.dat
};

std::int64_t wallclock_request(double nominal_seconds) {
  return static_cast<std::int64_t>(std::ceil(nominal_seconds / kGflops * 1.25)) +
         60;
}

struct Submitter {
  std::size_t user = std::numeric_limits<std::size_t>::max();
  std::size_t jobs_on_identity = kJobsPerIdentity;
};

struct Campaign {
  JobSite site;
  std::vector<PointSpec> points;
  std::vector<std::size_t> identity_order;
  std::vector<UserSlot> users;
  std::vector<JobRecord> jobs;
  std::vector<ajo::AbstractJobObject> ajos;
  std::vector<Submitter> submitters = std::vector<Submitter>(kSubmitters);
  Tracer* tracer = nullptr;
  std::size_t next_identity = 0;
  double queue_depth_max = 0;
  std::uint64_t connect_failures = 0;

  Campaign(const Options& options, const Size& size)
      : site(options.seed, size.population,
             batch::make_cray_t3e(kVsite, size.nodes)) {}
};

ajo::AbstractJobObject make_point(const PointSpec& point,
                                  const crypto::DistinguishedName& user,
                                  std::uint64_t seq,
                                  const std::string& expected_stdout) {
  client::JobBuilder builder("sweep-" + std::to_string(seq));
  builder.destination(kUsite, kVsite).account_group(kAccount);
  client::TaskOptions simulate;
  simulate.resources = {point.simulate_processors,
                        wallclock_request(point.simulate_seconds), 64, 0, 16};
  simulate.behavior.nominal_seconds = point.simulate_seconds;
  client::TaskOptions reduce;
  reduce.resources = {point.reduce_processors,
                      wallclock_request(point.reduce_seconds), 64, 0, 16};
  reduce.behavior.nominal_seconds = point.reduce_seconds;
  reduce.behavior.stdout_text = expected_stdout;
  reduce.behavior.output_files = {{"result.dat", point.result_bytes}};
  auto first = builder.script("simulate",
                              "./simulate " + point.parameters + "\n", simulate);
  auto second = builder.script("reduce", "./reduce\n", reduce);
  builder.after(first, second);
  return builder.build(user).value();
}

void pump(Campaign& c, std::size_t submitter_index);

void switch_identity(Campaign& c, std::size_t submitter_index) {
  Submitter& submitter = c.submitters[submitter_index];
  // The retired identity's user leaves; the verification pass brings it
  // back with its resumption ticket. pump() runs from a think-time event,
  // never inside the old client's own callback.
  if (submitter.user < c.users.size())
    c.users[submitter.user].client->disconnect();
  std::size_t slot = c.users.size();
  std::size_t identity =
      c.identity_order[c.next_identity++ % c.identity_order.size()];
  c.users.push_back({identity, c.site.make_client(identity)});
  submitter.user = slot;
  submitter.jobs_on_identity = 0;
  client::UnicoreClient& client = *c.users[slot].client;
  ScopedSpan span(c.tracer, "client.connect");
  client.connect(
      c.site.server->route_address(client.user().certificate.subject),
      [&c, submitter_index](util::Status status) {
        if (!status.ok()) {
          ++c.connect_failures;
          return;
        }
        pump(c, submitter_index);
      });
}

void pump(Campaign& c, std::size_t submitter_index) {
  if (c.jobs.size() >= c.points.size()) return;
  Submitter& submitter = c.submitters[submitter_index];
  if (submitter.jobs_on_identity >= kJobsPerIdentity) {
    // The next identity pays a full handshake and an auth-cache miss.
    switch_identity(c, submitter_index);
    return;
  }
  ++submitter.jobs_on_identity;
  std::uint64_t seq = c.jobs.size();
  const PointSpec& point = c.points[seq];
  client::UnicoreClient& client = *c.users[submitter.user].client;

  JobRecord record;
  record.seq = seq;
  record.user = submitter.user;
  record.stdout_step = "reduce";
  record.expected_stdout = "sweep point " + std::to_string(seq) + " ok\n";
  record.processors = {point.simulate_processors, point.reduce_processors};
  record.result_file = "result.dat";
  record.result_bytes = point.result_bytes;
  record.submit_at = c.site.grid.engine().now();
  c.ajos.push_back(make_point(point, client.user().certificate.subject, seq,
                              record.expected_stdout));
  c.jobs.push_back(std::move(record));

  ScopedSpan span(c.tracer, "client.submit", seq);
  client.submit(c.ajos.back(), [&c, submitter_index,
                                seq](util::Result<ajo::JobToken> token) {
    JobRecord& job = c.jobs[seq];
    if (token) {
      job.acked = true;
      job.token = token.value();
      job.ack_at = c.site.grid.engine().now();
      c.queue_depth_max =
          std::max(c.queue_depth_max,
                   static_cast<double>(c.site.batch().queued_jobs()));
    }
    c.site.grid.engine().after(c.points[seq].think, [&c, submitter_index] {
      pump(c, submitter_index);
    });
  });
}

}  // namespace

RoundResult run_campaign(const Options& options, Tracer* tracer) {
  RoundResult result;
  const Size size = size_for(options);

  double setup_start = wall_now();
  Campaign c(options, size);
  util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 11);
  c.points.reserve(size.jobs);
  for (std::size_t i = 0; i < size.jobs; ++i) {
    PointSpec point;
    point.simulate_processors =
        kProcessorMix[rng.below(std::size(kProcessorMix))];
    point.simulate_seconds = std::min(rng.exponential(240.0), 720.0) + 1.0;
    point.reduce_processors = 1;
    point.reduce_seconds = std::min(rng.exponential(10.0), 40.0) + 1.0;
    point.parameters = "--alpha " + std::to_string(rng.uniform()) +
                       " --steps " + std::to_string(rng.below(100'000));
    point.think = sim::from_seconds(rng.exponential(0.02));
    point.result_bytes = 256 + rng.below(4096);
    c.points.push_back(std::move(point));
  }
  std::size_t identities_needed =
      size.jobs / kJobsPerIdentity + 2 * kSubmitters;
  std::size_t offset = rng.below(size.population);
  for (std::size_t i = 0; i < identities_needed; ++i)
    c.identity_order.push_back((offset + i * 7919) % size.population);
  InputDigest digest;
  for (const PointSpec& p : c.points) {
    digest.add(static_cast<std::uint64_t>(p.simulate_processors));
    digest.add(static_cast<std::uint64_t>(p.simulate_seconds * 1e6));
    digest.add(static_cast<std::uint64_t>(p.reduce_processors));
    digest.add(static_cast<std::uint64_t>(p.reduce_seconds * 1e6));
    digest.add(p.parameters);
    digest.add(static_cast<std::uint64_t>(p.think));
    digest.add(p.result_bytes);
  }
  for (std::size_t id : c.identity_order) digest.add(id);
  result.input_digest = digest.hex();
  c.jobs.reserve(size.jobs);
  c.ajos.reserve(size.jobs);
  c.tracer = tracer;
  result.setup_s = wall_now() - setup_start;

  sim::Engine& engine = c.site.grid.engine();
  std::uint64_t events_start = engine.events_fired();
  double cpu_start = cpu_now();
  double wall_start = wall_now();
  for (std::size_t s = 0; s < kSubmitters; ++s) pump(c, s);
  {
    ScopedSpan span(tracer, "sim.run");
    engine.run();
  }
  VerifyResult verify = verify_jobs(c.site, c.users, c.jobs, tracer);
  result.wall_s = wall_now() - wall_start;
  result.cpu_s = cpu_now() - cpu_start;
  std::uint64_t events = engine.events_fired() - events_start;

  // Payload: the canonical AJO bytes each acked consign carried to the
  // gateway, which verified them against the user's signature.
  double payload = 0;
  for (JobRecord& job : c.jobs) {
    job.payload_bytes =
        static_cast<double>(ajo::encode_action(c.ajos[job.seq]).size());
    if (job.acked) payload += job.payload_bytes;
  }
  job_end_to_end(c.jobs, verify, result.wall_s, result);
  result.failed += c.connect_failures;
  result.counts = registry_counts(c.site.grid.metrics()->snapshot());

  if (tracer != nullptr) {
    c.ajos.resize(std::min<std::size_t>(c.ajos.size(), 256));
    LayerInputs in;
    in.ajos = &c.ajos;
    in.tracer = tracer;
    in.events_fired = events;
    in.payload_bytes = payload;
    in.wall_s = result.wall_s;
    in.cpu_s = result.cpu_s;
    in.queue_depth_max = c.queue_depth_max;
    job_layers(c.site, c.users, c.jobs, verify, std::move(in), result);
  }
  return result;
}

}  // namespace gridbench
