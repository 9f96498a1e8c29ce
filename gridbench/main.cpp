// gridbench: the repository's one benchmark.
//
//   gridbench --workload campaign|portal|staging --seed N --seconds S
//             --trace 0|1 [--size full|tiny] [--spans-out PATH]
//
// A run repeats rounds of the workload until S wall seconds have passed.
// Round 0 warms caches and the allocator and is not timed; after it come
// at least three untraced rounds, or with --trace 1 alternating traced
// and untraced rounds (at least one of each). Every round rebuilds the
// deployment from the seed, so rounds repeat the same inputs: the
// virtual-time metrics must agree bit for bit across rounds, which the
// run checks. A wall-clock rate is the best timed untraced round: load
// from outside the process only ever slows a round down, so the fastest
// round is the least disturbed measurement of the code. setup_s is the
// median over all rounds. The last line of stdout is the result object;
// the line before it carries the determinism fingerprint (input digest,
// virtual metrics, registry counts) and the per-round figures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace gridbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"payload_MBps", "MB/s"},
    {"restage_files_per_s", "1/s"},
    {"peak_rss_MiB", "MiB"},
    {"v_consign_p50_ms", "ms"},
    {"v_consign_p99_ms", "ms"},
    {"v_turnaround_p50_s", "s"},
    {"v_turnaround_p99_s", "s"},
    {"v_makespan_s", "s"},
    {"v_stage_MBps", "MB/s"},
    {"v_restage_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_job", "count"},
    {"sim.events_per_MB", "count/MB"},
    {"sim.self_ns_per_event", "ns"},
    {"net.handshakes_full", "count"},
    {"net.handshakes_resumed", "count"},
    {"net.messages_per_job", "count"},
    {"net.dropped_messages", "count"},
    {"net.handshake_full_us", "us"},
    {"net.handshake_resumed_us", "us"},
    {"net.seal_open_ns_per_byte", "ns/B"},
    {"net.wire_bytes_per_payload_byte", "B/B"},
    {"crypto.cert_validate_us", "us"},
    {"asn1.tbs_der_us", "us"},
    {"crypto.sha256_ns_per_byte", "ns/B"},
    {"ajo.encode_us", "us"},
    {"ajo.decode_us", "us"},
    {"ajo.wire_bytes_per_job", "B"},
    {"client.submit_call_us_p50", "us"},
    {"client.submit_call_us_p99", "us"},
    {"client.requests_failed", "count"},
    {"gateway.auth_cache_hit_ratio", "ratio"},
    {"gateway.request_latency_p99_ms", "ms"},
    {"gateway.authenticate_miss_us", "us"},
    {"gateway.authenticate_hit_us", "us"},
    {"gateway.token_validate_us", "us"},
    {"njs.dispatch_latency_p50_ms", "ms"},
    {"njs.dispatch_latency_p99_ms", "ms"},
    {"njs.journal_records_per_job", "count"},
    {"batch.queue_depth_max", "count"},
    {"batch.queue_wait_p50_s", "s"},
    {"batch.queue_wait_p99_s", "s"},
    {"batch.backfill_share", "ratio"},
    {"batch.utilization", "ratio"},
    {"batch.sched_us_per_job", "us"},
    {"xfer.chunks_moved", "count"},
    {"xfer.dedup_share", "ratio"},
    {"xfer.opens_per_file", "count"},
    {"xfer.retransmits", "count"},
    {"xfer.transfer_p99_s", "s"},
    {"xfer.chunk_codec_ns_per_byte", "ns/B"},
    {"store.intern_cold_ns_per_byte", "ns/B"},
    {"store.intern_warm_ns_per_byte", "ns/B"},
    {"store.dedup_bytes_saved", "B"},
    {"store.physical_to_logical", "ratio"},
    {"server.requests_per_job", "count"},
    {"proc.cpu_ms_per_job", "ms"},
    {"proc.cpu_ns_per_byte", "ns/B"},
    {"trace.overhead_share", "ratio"},
    {"trace.residual_share", "ratio"},
    {"failed_ops_ratio", "ratio"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "gridbench: %s\nusage: gridbench --workload "
               "campaign|portal|staging --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--spans-out PATH]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny") usage("size is full or tiny");
      options.tiny = value == "tiny";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return options;
}

/// JSON number with every digit; non-finite values become 0 and mark the
/// run incorrect (a metric that cannot be computed is a failed run).
std::string number(double value, bool& correct) {
  if (!std::isfinite(value)) {
    correct = false;
    value = 0;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_map(const std::map<std::string, double>& values,
                     bool& correct) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + number(value, correct);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  std::function<RoundResult(const Options&, Tracer*)> workload;
  if (options.workload == "campaign")
    workload = run_campaign;
  else if (options.workload == "portal")
    workload = run_portal;
  else if (options.workload == "staging")
    workload = run_staging;
  else
    usage("unknown workload");

  const int min_rounds = options.trace ? 3 : 4;
  constexpr int kMaxRounds = 64;
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  Tracer reported_spans(false);
  double start = wall_now();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         (wall_now() - start < options.seconds &&
          static_cast<int>(rounds.size()) < kMaxRounds)) {
    bool trace_round = options.trace && rounds.size() % 2 == 1;  // 1, 3, ...
    Tracer tracer(trace_round);
    rounds.push_back(workload(options, trace_round ? &tracer : nullptr));
    traced.push_back(trace_round);
    if (rounds.size() == 2 && trace_round) reported_spans = std::move(tracer);
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setups, untraced_walls, traced_walls;
  std::map<std::string, std::vector<double>> rates;
  const RoundResult& first = rounds.front();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& round = rounds[i];
    attempted += round.attempted;
    failed += round.failed;
    setups.push_back(round.setup_s);
    if (round.input_digest != first.input_digest ||
        round.virtual_metrics != first.virtual_metrics ||
        round.counts != first.counts) {
      std::fprintf(stderr,
                   "gridbench: round %zu diverged from round 0 on the same "
                   "seed (virtual metrics or registry counts differ)\n",
                   i);
      correct = false;
    }
    if (i == 0) continue;  // warm-up
    if (traced[i]) {
      traced_walls.push_back(round.wall_s);
      continue;
    }
    untraced_walls.push_back(round.wall_s);
    for (const auto& [name, value] : round.rates) rates[name].push_back(value);
  }
  if (failed != 0 || attempted == 0) correct = false;

  std::map<std::string, double> metrics;
  std::string body;
  if (!options.trace) {
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_MiB"] = peak_rss_mib();
    for (const auto& [name, values] : rates)
      metrics[name] = *std::max_element(values.begin(), values.end());
    for (const auto& [name, value] : first.virtual_metrics) metrics[name] = value;
    for (const MetricDef& def : kEndToEnd) {
      if (!metrics.count(def.name)) {
        std::fprintf(stderr, "gridbench: metric %s was not produced\n", def.name);
        correct = false;
        metrics[def.name] = 0;
      }
      if (!body.empty()) body += ", ";
      body += std::string("\"") + def.name + "\": {\"value\": " +
              number(metrics[def.name], correct) + ", \"unit\": \"" + def.unit +
              "\"}";
    }
  } else {
    const RoundResult& traced_round = rounds[1];  // the first traced round
    metrics = traced_round.layers;
    // Best against best, like the wall-clock rates.
    metrics["trace.overhead_share"] =
        *std::min_element(traced_walls.begin(), traced_walls.end()) /
            *std::min_element(untraced_walls.begin(), untraced_walls.end()) -
        1.0;
    metrics["failed_ops_ratio"] =
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted));
    for (const MetricDef& def : kPerLayer) {
      // A layer this workload does not exercise reads 0 (see METRICS.md).
      if (!body.empty()) body += ", ";
      body += std::string("\"") + def.name + "\": {\"value\": " +
              number(metrics.count(def.name) ? metrics[def.name] : 0.0, correct) +
              ", \"unit\": \"" + def.unit + "\"}";
    }
    if (!options.spans_out.empty()) reported_spans.write(options.spans_out);
  }

  // Per-round wall-clock figures, warm-up and traced rounds included.
  std::map<std::string, std::string> per_round;
  auto append = [&](const std::string& name, double value) {
    std::string& list = per_round[name];
    list += (list.empty() ? "" : ", ") + number(value, correct);
  };
  for (const RoundResult& round : rounds) {
    append("setup_s", round.setup_s);
    append("wall_s", round.wall_s);
    append("cpu_s", round.cpu_s);
    for (const auto& [name, value] : round.rates) append(name, value);
  }
  std::string per_round_json;
  for (const auto& [name, list] : per_round)
    per_round_json += (per_round_json.empty() ? "\"" : ", \"") + name +
                      "\": [" + list + "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"rounds\": {%s}, "
      "\"input_digest\": \"%s\", \"virtual\": %s, \"counts\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      per_round_json.c_str(), first.input_digest.c_str(),
      json_map(first.virtual_metrics, correct).c_str(),
      json_map(first.counts, correct).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), body.c_str());
  return 0;
}
