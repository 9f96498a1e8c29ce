// What the two job workloads (campaign, portal) share: the Usite they
// drive, the per-job bookkeeping, the post-drain verification pass, and
// the per-layer readout of a traced round.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "batch/target_system.h"
#include "bench.h"
#include "client/client.h"
#include "grid/grid.h"
#include "layers.h"

namespace gridbench {

inline constexpr const char* kUsite = "FZ-Juelich";
inline constexpr const char* kVsite = "T3E";
inline constexpr const char* kAccount = "project-a";

/// FZ-Juelich with 2 gateway x 2 NJS replicas and the modelled M/D/1
/// service times (2 ms per gateway request, 3 ms per NJS consign), plus
/// `population` certificate identities mapped in the sharded UUDB.
struct JobSite {
  unicore::grid::Grid grid;
  unicore::server::UsiteServer* server = nullptr;
  unicore::crypto::TrustStore trust;
  std::vector<unicore::crypto::Credential> identities;

  JobSite(std::uint64_t seed, std::size_t population,
          unicore::batch::SystemConfig system);

  unicore::batch::BatchSubsystem& batch();
  /// A submit-only client for identity `index` (no transfer rails unless
  /// `transfer_streams` > 0).
  std::unique_ptr<unicore::client::UnicoreClient> make_client(
      std::size_t index, std::size_t transfer_streams = 0);
};

/// One client the workload created, with the identity it acts for.
struct UserSlot {
  std::size_t identity = 0;
  std::unique_ptr<unicore::client::UnicoreClient> client;
};

/// One consigned job as the benchmark tracks it.
struct JobRecord {
  std::uint64_t seq = 0;
  std::size_t user = 0;  // index into the workload's UserSlot table
  unicore::ajo::JobToken token = 0;
  std::string stdout_step;
  std::string expected_stdout;
  /// The output file the job leaves in its Uspace, and its size.
  std::string result_file;
  std::uint64_t result_bytes = 0;
  /// Batch demand of each task, kept for the scheduler replay.
  std::vector<std::int64_t> processors;
  double payload_bytes = 0;
  unicore::sim::Time submit_at = -1;
  unicore::sim::Time ack_at = -1;
  bool acked = false;
};

/// True when the job finished kSuccessful and its `stdout_step` printed
/// the expected stdout.
bool outcome_matches(const unicore::ajo::Outcome& root, const JobRecord& job);

/// When a job became terminal: the latest finish stamp in its outcome
/// tree (the root node of a job group carries no finish stamp of its
/// own).
unicore::sim::Time terminal_time(const unicore::ajo::Outcome& outcome);

/// Result of the post-drain pass.
struct VerifyResult {
  std::vector<double> turnaround_s;
  unicore::sim::Time last_finish = 0;
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  unicore::sim::Time virtual_s = 0;
  /// Every verified task as the batch system saw it: dispatch time,
  /// node count, runtime (the scheduler replay's input).
  std::vector<replay::BatchArrival> batch_stream;
};

/// The post-drain pass, a user coming back for the results: every acked
/// token is queried once through its owner's client (reconnecting idle
/// clients, which resumes their session ticket) and its result file is
/// fetched again. A job verifies with kSuccessful, the expected stdout
/// on the named step, and a result file of the expected size.
VerifyResult verify_jobs(JobSite& site, std::vector<UserSlot>& users,
                         const std::vector<JobRecord>& jobs, Tracer* tracer);

/// Fills the end-to-end metrics every job workload reports from its
/// records and verification pass.
void job_end_to_end(const std::vector<JobRecord>& jobs,
                    const VerifyResult& verify, double timed_wall_s,
                    RoundResult& result);

/// The per-layer readout of a traced job-workload round: fills the
/// deployment-side fields of `in` (grid, identities, message sizes, NJS,
/// batch stream, client counters) and reads every layer.
void job_layers(JobSite& site, const std::vector<UserSlot>& users,
                const std::vector<JobRecord>& jobs, const VerifyResult& verify,
                LayerInputs in, RoundResult& result);

}  // namespace gridbench
