#include "layers.h"

#include <algorithm>

#include "ajo/codec.h"

namespace gridbench {

using namespace unicore;

void read_layers(const LayerInputs& in, std::map<std::string, double>& L) {
  obs::MetricsSnapshot snap = in.grid->metrics()->snapshot();
  const double jobs = std::max(1.0, in.jobs);
  std::int64_t now = in.grid->now_epoch();

  // sim
  L["sim.events_per_job"] = static_cast<double>(in.events_fired) / jobs;
  L["sim.events_per_MB"] =
      static_cast<double>(in.events_fired) / (in.payload_bytes / 1e6);
  double ns_per_event =
      replay::sim_self_ns_per_event(in.events_fired, in.requests_sent);
  L["sim.self_ns_per_event"] = ns_per_event;

  // net
  double handshakes_ok =
      require_labeled(snap, "unicore_channel_handshakes_total", "result", "ok");
  double resumed =
      in.expect_resumptions
          ? require_labeled(snap, "unicore_channel_resumptions_total",
                            "result", "ok")
          : optional_labeled(snap, "unicore_channel_resumptions_total",
                             "result", "ok");
  // Both ends count an established channel; resumptions count once.
  L["net.handshakes_full"] = handshakes_ok / 2 - resumed;
  L["net.handshakes_resumed"] = resumed;
  L["net.messages_per_job"] =
      require_total(snap, "unicore_net_messages_sent_total") / jobs;
  L["net.dropped_messages"] =
      require_total(snap, "unicore_net_messages_dropped_total");
  replay::HandshakeCost handshake =
      replay::handshakes(*in.grid, in.users.front());
  L["net.handshake_full_us"] = handshake.full_us;
  L["net.handshake_resumed_us"] = handshake.resumed_us;
  L["net.seal_open_ns_per_byte"] = replay::seal_open_ns_per_byte(
      *in.grid, in.users.front(), in.message_sizes);
  L["net.wire_bytes_per_payload_byte"] =
      require_total(snap, "unicore_net_bytes_sent_total") / in.payload_bytes;

  // crypto / asn1
  L["crypto.cert_validate_us"] =
      replay::cert_validate_us(*in.trust, in.users, now);
  L["asn1.tbs_der_us"] = replay::tbs_der_us(in.users);
  L["crypto.sha256_ns_per_byte"] = replay::sha256_ns_per_byte(in.message_sizes);

  // ajo
  replay::CodecCost codec = replay::ajo_codec(*in.ajos);
  L["ajo.encode_us"] = codec.encode_us;
  L["ajo.decode_us"] = codec.decode_us;
  double ajo_bytes = 0;
  for (const auto& job : *in.ajos)
    ajo_bytes += static_cast<double>(ajo::encode_action(job).size());
  L["ajo.wire_bytes_per_job"] =
      ajo_bytes / static_cast<double>(std::max<std::size_t>(1, in.ajos->size()));

  // client
  std::vector<double> submit_us;
  for (double seconds : in.tracer->durations(in.submit_span))
    submit_us.push_back(seconds * 1e6);
  L["client.submit_call_us_p50"] = quantile(submit_us, 0.50);
  L["client.submit_call_us_p99"] = quantile(submit_us, 0.99);
  L["client.requests_failed"] = static_cast<double>(in.requests_failed);

  // gateway
  double hits = require_labeled(snap, "unicore_gateway_auth_cache_total",
                                "result", "hit");
  double misses = require_labeled(snap, "unicore_gateway_auth_cache_total",
                                  "result", "miss");
  L["gateway.auth_cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  L["gateway.request_latency_p99_ms"] =
      require_histogram_quantile(
          snap, "unicore_gateway_request_latency_seconds", 0.99) *
      1e3;
  replay::AuthCost auth = replay::gateway_auth(*in.grid, in.users, now);
  L["gateway.authenticate_miss_us"] = auth.miss_us;
  L["gateway.authenticate_hit_us"] = auth.hit_us;
  L["gateway.token_validate_us"] = auth.token_us;

  // njs
  L["njs.dispatch_latency_p50_ms"] =
      require_histogram_quantile(snap, "unicore_njs_dispatch_latency_seconds",
                                 0.50) *
      1e3;
  L["njs.dispatch_latency_p99_ms"] =
      require_histogram_quantile(snap, "unicore_njs_dispatch_latency_seconds",
                                 0.99) *
      1e3;
  double journal_records = 0;
  for (std::size_t i = 0; i < in.cluster->replica_count(); ++i)
    if (in.cluster->journal(i))
      journal_records += static_cast<double>(in.cluster->journal(i)->records());
  L["njs.journal_records_per_job"] = journal_records / jobs;

  // batch
  const batch::SubsystemStats& stats = in.batch->stats();
  L["batch.queue_depth_max"] = in.queue_depth_max;
  L["batch.queue_wait_p50_s"] =
      require_histogram_quantile(snap, "unicore_batch_queue_wait_seconds", 0.50);
  L["batch.queue_wait_p99_s"] =
      require_histogram_quantile(snap, "unicore_batch_queue_wait_seconds", 0.99);
  L["batch.backfill_share"] =
      static_cast<double>(stats.backfilled_starts) /
      std::max(1.0, static_cast<double>(stats.jobs_submitted));
  L["batch.utilization"] = in.batch->utilization();
  L["batch.sched_us_per_job"] =
      replay::batch_sched_us_per_job(in.batch->config(), in.batch_stream);

  // xfer: series the chunked engine registers on first use.
  L["xfer.chunks_moved"] = optional_total(snap, "unicore_xfer_chunks_total");
  L["xfer.retransmits"] = optional_total(snap, "unicore_xfer_retransmits_total");

  // server
  L["server.requests_per_job"] =
      require_total(snap, "unicore_server_requests_total") / jobs;

  // process: the timed phase's CPU, and the wall no span claims (span
  // self time outside the engine loop, plus the replayed engine cost of
  // the events the round fired).
  L["proc.cpu_ms_per_job"] = in.cpu_s * 1e3 / jobs;
  L["proc.cpu_ns_per_byte"] = in.cpu_s * 1e9 / in.payload_bytes;
  double claimed = in.tracer->self_seconds_except("sim.run") +
                   static_cast<double>(in.events_fired) * ns_per_event / 1e9;
  L["trace.residual_share"] = std::max(0.0, 1.0 - claimed / in.wall_s);
}

}  // namespace gridbench
