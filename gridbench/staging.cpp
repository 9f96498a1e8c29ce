// staging: FZ-Juelich -> LRZ on the German testbed over 4 chunked
// streams. The dataset is a real-content tree generated from the seed:
// thousands of 4-64 KiB files plus a few multi-MiB files. The cold leg
// pushes the whole tree to a parked job; the warm leg changes a fixed
// share of the files and restages the whole tree to a second parked job,
// so unchanged files settle out of the receiver's chunk store. Record
// crypto, chunk digests, the xfer engine and store interning dominate
// the cold leg; bundle manifests and dedup lookups the warm one. Batch
// and gateway are idle apart from the two parked jobs.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "ajo/tasks.h"
#include "client/client.h"
#include "grid/testbed.h"
#include "jobs.h"
#include "layers.h"
#include "replay.h"
#include "util/rng.h"
#include "xfer/wire.h"
#include "workloads.h"

namespace gridbench {

using namespace unicore;

namespace {

constexpr const char* kSource = "FZ-Juelich";
constexpr const char* kTarget = "LRZ";
constexpr const char* kTargetVsite = "VPP700";
constexpr double kChangedShare = 0.10;
constexpr std::size_t kStreams = 4;

/// Small files are 4-64 KiB, drawn; large file k is `large_bytes << k`.
struct Size {
  std::size_t small_files;
  std::size_t large_files;
  std::uint64_t large_bytes;
};

Size size_for(const Options& options) {
  return options.tiny ? Size{120, 1, 1u << 20} : Size{3'000, 3, 2u << 20};
}

using Tree =
    std::vector<std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>;

/// The seeded dataset: the tree as first staged, and the same tree with
/// a fixed share of its files edited in place.
struct Dataset {
  Tree cold;
  Tree warm;
  std::vector<std::shared_ptr<const uspace::FileBlob>> changed;
  std::vector<std::shared_ptr<const uspace::FileBlob>> unchanged;
  double cold_bytes = 0;
  double warm_bytes = 0;
};

Dataset make_dataset(const Options& options, const Size& size,
                     InputDigest& digest) {
  util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 37);
  Dataset data;
  std::size_t total = size.small_files + size.large_files;
  for (std::size_t i = 0; i < total; ++i) {
    bool large = i >= size.small_files;
    std::uint64_t bytes = large ? size.large_bytes << (i - size.small_files)
                                : (4u << 10) + rng.below(60u << 10);
    std::string name = (large ? "input/big-" : "input/part-") +
                       std::to_string(i) + ".dat";
    auto blob =
        std::make_shared<const uspace::FileBlob>(uspace::FileBlob::from_bytes(
            rng.bytes(static_cast<std::size_t>(bytes))));
    digest.add(name);
    digest.add(std::string_view(reinterpret_cast<const char*>(
                                    blob->checksum().data()),
                                blob->checksum().size()));
    data.cold_bytes += static_cast<double>(bytes);
    data.cold.emplace_back(std::move(name), std::move(blob));
  }
  // Edit the same share of each size class (at least one file of each),
  // chosen by a seeded shuffle, so every seed restages the same mix: 64
  // bytes rewritten at a random offset, and a multi-MiB file keeps every
  // chunk but one.
  std::vector<bool> edited(total, false);
  auto edit_share = [&](std::size_t first, std::size_t count) {
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = first + i;
    for (std::size_t i = count; i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    auto edits = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(kChangedShare * static_cast<double>(count))));
    for (std::size_t k = 0; k < edits && k < count; ++k) edited[order[k]] = true;
  };
  edit_share(0, size.small_files);
  edit_share(size.small_files, size.large_files);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& [name, blob] = data.cold[i];
    if (!edited[i]) {
      data.warm.emplace_back(name, blob);
      data.unchanged.push_back(blob);
      data.warm_bytes += static_cast<double>(blob->size());
      continue;
    }
    util::Bytes content = *blob->bytes();
    std::size_t offset = rng.below(content.size() - 64);
    util::Bytes patch = rng.bytes(64);
    std::memcpy(content.data() + offset, patch.data(), patch.size());
    auto changed = std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::from_bytes(std::move(content)));
    digest.add(i);
    digest.add(offset);
    data.warm_bytes += static_cast<double>(changed->size());
    data.changed.push_back(changed);
    data.warm.emplace_back(name, std::move(changed));
  }
  return data;
}

struct Staging {
  grid::Grid grid;
  crypto::Credential user;
  crypto::TrustStore trust;
  std::unique_ptr<client::UnicoreClient> client;
  Dataset data;

  explicit Staging(std::uint64_t seed) : grid(seed) {
    grid::make_german_testbed(grid);
    user = grid::add_testbed_user(grid, "Staging User", "staging@example.de");
    trust = grid.make_trust_store();
    server::UsiteServer& source = *grid.site(kSource);
    source.set_transfer_threshold(0);  // every file rides the chunked engine
    source.set_transfer_streams(kStreams);
    client::UnicoreClient::Config config;
    config.host = "ws.staging.example.de";
    config.user = user;
    config.trust = &trust;
    config.transfer_streams = 0;
    client = std::make_unique<client::UnicoreClient>(
        grid.engine(), grid.network(), grid.rng(), std::move(config));
  }

  /// Steps the engine until `done` holds. The parked jobs keep events
  /// pending for simulated days, so running to quiescence is not an
  /// option here.
  template <typename Pred>
  void drive(Tracer* tracer, Pred done) {
    ScopedSpan span(tracer, "sim.run");
    while (!done() && grid.engine().step()) {
    }
  }
};

/// The receiving job: it parks on the Vsite until the benchmark releases
/// it, and its script names every input it expects with the size, so the
/// consign carries the tree's manifest.
ajo::AbstractJobObject parked_job(const crypto::DistinguishedName& user,
                                  const std::string& name, const Tree& tree) {
  ajo::AbstractJobObject job;
  job.set_name(name);
  job.usite = kTarget;
  job.vsite = kTargetVsite;
  job.user = user;
  job.account_group = kAccount;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("park");
  for (const auto& [file, blob] : tree)
    task->script += "expect " + file + " " + std::to_string(blob->size()) + "\n";
  task->script += "./await-input\n";
  task->set_resource_request({1, 86'400, 64, 0, 8});
  task->behavior.nominal_seconds = 1e7;
  job.add(std::move(task));
  return job;
}

/// Leg outcome: wall and virtual duration, and the files whose
/// receiver-side checksum matched the sender's.
struct Leg {
  double wall_s = 0;
  sim::Time virtual_time = 0;
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;
};

Leg stage(Staging& s, const Tree& tree, ajo::JobToken token, Tracer* tracer) {
  Leg leg;
  double wall_start = wall_now();
  sim::Time virtual_start = s.grid.engine().now();
  bool replied = false;
  bool ok = false;
  {
    ScopedSpan span(tracer, "server.deliver_files");
    s.grid.site(kSource)->deliver_files(
        njs::RemoteJobHandle{kTarget, token}, tree,
        [&](util::Status status) {
          replied = true;
          ok = status.ok();
        });
  }
  s.drive(tracer, [&] { return replied; });
  leg.virtual_time = s.grid.engine().now() - virtual_start;
  njs::Njs& receiver = s.grid.site(kTarget)->njs();
  {
    ScopedSpan span(tracer, "njs.fetch_file");
    for (const auto& [name, blob] : tree) {
      auto received = receiver.fetch_file_shared(token, name);
      if (ok && received && received.value()->checksum() == blob->checksum() &&
          received.value()->size() == blob->size())
        ++leg.verified;
      else
        ++leg.failed;
    }
  }
  leg.wall_s = wall_now() - wall_start;
  return leg;
}

}  // namespace

RoundResult run_staging(const Options& options, Tracer* tracer) {
  RoundResult result;
  const Size size = size_for(options);

  double setup_start = wall_now();
  Staging s(options.seed);
  InputDigest digest;
  s.data = make_dataset(options, size, digest);
  result.input_digest = digest.hex();
  result.setup_s = wall_now() - setup_start;

  sim::Engine& engine = s.grid.engine();
  server::UsiteServer& target = *s.grid.site(kTarget);
  std::uint64_t events_start = engine.events_fired();
  double cpu_start = cpu_now();
  double wall_start = wall_now();

  // Two parked receiver jobs, consigned through the user's client.
  std::vector<JobRecord> jobs(2);
  std::vector<ajo::AbstractJobObject> ajos;
  std::size_t acked = 0;
  bool connected = false;
  bool connect_done = false;
  {
    ScopedSpan span(tracer, "client.connect");
    s.client->connect(target.address(), [&](util::Status status) {
      connected = status.ok();
      connect_done = true;
    });
  }
  s.drive(tracer, [&] { return connect_done; });
  double depth_max = 0;
  for (std::size_t i = 0; i < jobs.size() && connected; ++i) {
    jobs[i].seq = i;
    jobs[i].submit_at = engine.now();
    ajos.push_back(i == 0 ? parked_job(s.user.certificate.subject,
                                       "stage-cold", s.data.cold)
                          : parked_job(s.user.certificate.subject,
                                       "stage-warm", s.data.warm));
    ScopedSpan span(tracer, "client.submit", i);
    s.client->submit(ajos.back(), [&, i](util::Result<ajo::JobToken> token) {
      ++acked;
      if (!token) return;
      jobs[i].acked = true;
      jobs[i].token = token.value();
      jobs[i].ack_at = engine.now();
      depth_max = std::max(depth_max, static_cast<double>(
                                          target.njs().subsystem(kTargetVsite)
                                              ->queued_jobs()));
    });
  }
  s.drive(tracer, [&] { return acked == ajos.size(); });

  obs::MetricsSnapshot before_warm;
  Leg cold, warm;
  if (jobs[0].acked && jobs[1].acked) {
    cold = stage(s, s.data.cold, jobs[0].token, tracer);
    if (tracer != nullptr) before_warm = s.grid.metrics()->snapshot();
    warm = stage(s, s.data.warm, jobs[1].token, tracer);
  } else {
    cold.failed = s.data.cold.size();
    warm.failed = s.data.warm.size();
  }

  // Release both parked jobs and read their terminal Outcomes.
  std::vector<double> turnaround_s;
  sim::Time last_finish = 0;
  std::uint64_t job_failures = 0;
  std::size_t settled = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].acked) {
      ++job_failures;
      ++settled;
      continue;
    }
    ScopedSpan span(tracer, "client.control", i);
    s.client->control(
        jobs[i].token, ajo::ControlService::Command::kAbort,
        [&, i](util::Status status) {
          if (!status.ok()) {
            ++job_failures;
            ++settled;
            return;
          }
          s.client->wait_for_completion(
              jobs[i].token, sim::sec(1),
              [&](util::Result<ajo::Outcome> outcome) {
                ++settled;
                if (!outcome ||
                    outcome.value().status != ajo::ActionStatus::kAborted) {
                  ++job_failures;
                  return;
                }
                sim::Time finished = terminal_time(outcome.value());
                turnaround_s.push_back(sim::to_seconds(
                    finished - outcome.value().submitted_at));
                last_finish = std::max(last_finish, finished);
              });
        });
  }
  s.drive(tracer, [&] { return settled == jobs.size(); });
  result.wall_s = wall_now() - wall_start;
  result.cpu_s = cpu_now() - cpu_start;
  std::uint64_t events = engine.events_fired() - events_start;

  std::vector<double> consign_ms;
  for (const JobRecord& job : jobs)
    if (job.acked)
      consign_ms.push_back(static_cast<double>(job.ack_at - job.submit_at) / 1e3);
  double jobs_done = static_cast<double>(turnaround_s.size());
  double makespan_s = sim::to_seconds(last_finish - jobs[0].submit_at);
  result.rates["jobs_per_s"] = jobs_done / result.wall_s;
  result.rates["payload_MBps"] = s.data.cold_bytes / 1e6 / cold.wall_s;
  result.rates["restage_files_per_s"] =
      static_cast<double>(warm.verified) / warm.wall_s;
  result.virtual_metrics["v_consign_p50_ms"] = quantile(consign_ms, 0.50);
  result.virtual_metrics["v_consign_p99_ms"] = quantile(consign_ms, 0.99);
  result.virtual_metrics["v_turnaround_p50_s"] = quantile(turnaround_s, 0.50);
  result.virtual_metrics["v_turnaround_p99_s"] = quantile(turnaround_s, 0.99);
  result.virtual_metrics["v_makespan_s"] = makespan_s;
  result.virtual_metrics["v_stage_MBps"] =
      s.data.cold_bytes / 1e6 / sim::to_seconds(cold.virtual_time);
  result.virtual_metrics["v_restage_s"] = sim::to_seconds(warm.virtual_time);
  result.attempted = s.data.cold.size() + s.data.warm.size() + jobs.size();
  result.failed = cold.failed + warm.failed + job_failures;
  obs::MetricsSnapshot snap = s.grid.metrics()->snapshot();
  result.counts = registry_counts(snap);
  if (tracer == nullptr) return result;

  // --- per-layer metrics of the traced round ---------------------------
  const double staged_bytes = s.data.cold_bytes + s.data.warm_bytes;
  LayerInputs in;
  in.grid = &s.grid;
  in.trust = &s.trust;
  in.users = {s.user};
  for (const auto& [name, blob] : s.data.cold) {
    in.message_sizes.push_back(static_cast<std::size_t>(
        std::min<std::uint64_t>(blob->size(), xfer::kDefaultChunkBytes)));
    if (in.message_sizes.size() == 512) break;
  }
  in.ajos = &ajos;
  in.tracer = tracer;
  in.cluster = &target.njs_cluster();
  in.batch = target.njs().subsystem(kTargetVsite);
  for (std::size_t i = 0; i < turnaround_s.size(); ++i)
    in.batch_stream.push_back({jobs[i].ack_at, 1, turnaround_s[i]});
  in.events_fired = events;
  in.requests_sent = s.client->requests_sent();
  in.requests_failed = s.client->requests_failed();
  in.jobs = static_cast<double>(jobs.size());
  in.payload_bytes = staged_bytes;
  in.wall_s = result.wall_s;
  in.cpu_s = result.cpu_s;
  in.queue_depth_max = depth_max;
  auto& L = result.layers;
  read_layers(in, L);

  double chunks = require_total(snap, "unicore_xfer_chunks_total");
  double warm_chunks =
      chunks - require_total(before_warm, "unicore_xfer_chunks_total");
  double warm_dedup = require_total(snap, "unicore_xfer_dedup_chunks_total") -
                      optional_total(before_warm, "unicore_xfer_dedup_chunks_total");
  L["xfer.chunks_moved"] = chunks;
  L["xfer.dedup_share"] = warm_dedup / std::max(1.0, warm_dedup + warm_chunks);
  L["xfer.opens_per_file"] =
      require_total(snap, "unicore_xfer_opens_total") /
      static_cast<double>(s.data.cold.size() + s.data.warm.size());
  L["xfer.transfer_p99_s"] =
      require_histogram_quantile(snap, "unicore_xfer_transfer_seconds", 0.99);
  std::vector<std::shared_ptr<const uspace::FileBlob>> files;
  for (const auto& [name, blob] : s.data.cold) files.push_back(blob);
  L["xfer.chunk_codec_ns_per_byte"] = replay::chunk_codec_ns_per_byte(files);

  replay::InternCost intern =
      replay::store_intern(s.data.changed, s.data.unchanged);
  L["store.intern_cold_ns_per_byte"] = intern.cold_ns_per_byte;
  L["store.intern_warm_ns_per_byte"] = intern.warm_ns_per_byte;
  L["store.dedup_bytes_saved"] =
      require_labeled(snap, "unicore_store_dedup_bytes_saved_total", "site",
                      kTarget);
  L["store.physical_to_logical"] =
      require_labeled(snap, "unicore_store_physical_bytes", "site", kTarget) /
      std::max(1.0, require_labeled(snap, "unicore_store_logical_bytes", "site",
                                    kTarget));

  return result;
}

}  // namespace gridbench
