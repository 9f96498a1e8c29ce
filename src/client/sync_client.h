// Blocking facade over UnicoreClient for tests and examples: each call
// starts the callback operation and steps the simulation engine until
// its completion fires, turning the asynchronous protocol into plain
// return values. Only usable from code that owns the engine loop — tests,
// examples and benches — never from inside an event handler.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/future.h"
#include "client/workflow.h"
#include "sim/engine.h"

namespace unicore::client {

class SyncClient {
 public:
  SyncClient(sim::Engine& engine, UnicoreClient& client)
      : engine_(engine), client_(client) {}

  /// Starts a callback operation and pumps the engine until its
  /// completion fires, then returns the result — the bridge from any
  /// UnicoreClient operation to straight-line code. `start`
  /// receives the completion callback to pass on:
  ///
  ///   sync.await<xfer::TransferStats>([&](auto done) {
  ///     client.push_tree(token, files, std::move(done));
  ///   });
  template <typename T, typename Start>
  util::Result<T> await(Start&& start) {
    std::optional<util::Result<T>> result;
    start([&result](util::Result<T> r) { result = std::move(r); });
    while (!result.has_value() && engine_.step()) {
    }
    if (!result.has_value())
      return util::make_error(util::ErrorCode::kInternal,
                              "event queue drained before the reply");
    return std::move(*result);
  }

  /// Pumps the engine until `future` settles — for
  /// WorkflowManager::one_run, the one call that returns a Future.
  template <typename T>
  util::Result<T> wait(Future<T> future) {
    while (!future.ready() && engine_.step()) {
    }
    if (!future.ready())
      return util::make_error(util::ErrorCode::kInternal,
                              "event queue drained before the reply");
    return future.result();
  }

  util::Status connect(net::Address usite);

  util::Result<crypto::SoftwareBundle> fetch_bundle(const std::string& name);
  util::Result<std::vector<resources::ResourcePage>> fetch_resource_pages();
  util::Result<ajo::JobToken> submit(const ajo::AbstractJobObject& job);
  util::Result<ajo::JobToken> submit_with_retry(
      const ajo::AbstractJobObject& job, int attempts);
  util::Result<ajo::Outcome> query(ajo::JobToken token,
                                   ajo::QueryService::Detail detail);
  util::Result<std::vector<njs::JobSummary>> list();
  util::Status control(ajo::JobToken token,
                       ajo::ControlService::Command command);
  util::Result<uspace::FileBlob> fetch_output(ajo::JobToken token,
                                              const std::string& name);
  /// Polls until the job is terminal, then returns its outcome.
  util::Result<ajo::Outcome> wait_for_completion(ajo::JobToken token,
                                                 sim::Time interval);
  util::Result<obs::MetricsSnapshot> fetch_metrics();
  util::Result<obs::TraceTimeline> fetch_trace(ajo::JobToken token);
  util::Result<njs::JournalInfo> inspect_journal();

  // --- portal sessions & managed storages (docs/PORTAL.md) -------------
  util::Result<gateway::SessionGrant> open_session(
      std::int64_t requested_ttl = 0);
  util::Result<gateway::SessionGrant> refresh_session();
  util::Status close_session();
  util::Result<std::vector<njs::StorageInfo>> list_storages();
  util::Result<std::vector<std::string>> storage_files(ajo::JobToken token);
  util::Result<std::uint64_t> reap_storage(ajo::JobToken token);

  /// Compiles, consigns, and waits for a whole workflow (see
  /// WorkflowManager::one_run).
  util::Result<WorkflowRun> one_run(const std::vector<WorkflowStep>& steps,
                                    const WorkflowParameters& parameters,
                                    WorkflowManager::Options options = {});
  util::Result<WorkflowRun> one_run(
      const std::vector<std::string>& command_lines,
      const WorkflowParameters& parameters,
      WorkflowManager::Options options = {});

  UnicoreClient& async() { return client_; }

 private:
  sim::Engine& engine_;
  UnicoreClient& client_;
};

}  // namespace unicore::client
