// The per-layer readout of a traced round, shared by every workload:
// registry series (with the missing-series guard), public accessors,
// the benchmark's own spans, and the layer replays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "batch/subsystem.h"
#include "bench.h"
#include "grid/grid.h"
#include "njs/cluster.h"
#include "replay.h"

namespace gridbench {

/// What a workload hands to read_layers after its traced round.
struct LayerInputs {
  unicore::grid::Grid* grid = nullptr;
  const unicore::crypto::TrustStore* trust = nullptr;
  /// Identities the round used (the replays' certificates); non-empty.
  std::vector<unicore::crypto::Credential> users;
  /// Application message sizes of the round (record and hash replays).
  std::vector<std::size_t> message_sizes;
  const std::vector<unicore::ajo::AbstractJobObject>* ajos = nullptr;
  const Tracer* tracer = nullptr;
  /// Span whose durations are the client submit-call cost.
  const char* submit_span = "client.submit";
  /// The receiving Usite's NJS replicas and batch subsystem.
  unicore::njs::NjsCluster* cluster = nullptr;
  unicore::batch::BatchSubsystem* batch = nullptr;
  /// Task stream for the scheduler replay.
  std::vector<replay::BatchArrival> batch_stream;
  std::uint64_t events_fired = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_failed = 0;
  double jobs = 0;
  double payload_bytes = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double queue_depth_max = 0;
  /// The resumption series is registered by the first resumed
  /// handshake, so only a workload that reconnects may insist on it.
  bool expect_resumptions = false;
};

/// Fills every per-layer metric except the xfer/store ones a staging
/// round adds itself (on other workloads those read 0 or the optional
/// xfer series).
void read_layers(const LayerInputs& in, std::map<std::string, double>& layers);

}  // namespace gridbench
