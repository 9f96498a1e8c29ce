#include "client/sync_client.h"

namespace unicore::client {

using util::Result;
using util::Status;

namespace {

/// Collapses a Status completion into the Result<Ack> await() pumps.
std::function<void(Status)> as_ack(std::function<void(Result<Ack>)> done) {
  return [done = std::move(done)](Status status) {
    if (status.ok())
      done(Ack{});
    else
      done(status.error());
  };
}

Status to_status(const Result<Ack>& result) {
  return result.ok() ? Status::ok_status() : Status(result.error());
}

}  // namespace

Status SyncClient::connect(net::Address usite) {
  return to_status(await<Ack>(
      [&](auto done) { client_.connect(usite, as_ack(std::move(done))); }));
}

Result<crypto::SoftwareBundle> SyncClient::fetch_bundle(
    const std::string& name) {
  return await<crypto::SoftwareBundle>([&](auto done) {
    client_.fetch_bundle(name, std::move(done));
  });
}

Result<std::vector<resources::ResourcePage>>
SyncClient::fetch_resource_pages() {
  return await<std::vector<resources::ResourcePage>>(
      [&](auto done) { client_.fetch_resource_pages(std::move(done)); });
}

Result<ajo::JobToken> SyncClient::submit(const ajo::AbstractJobObject& job) {
  return await<ajo::JobToken>(
      [&](auto done) { client_.submit(job, std::move(done)); });
}

Result<ajo::JobToken> SyncClient::submit_with_retry(
    const ajo::AbstractJobObject& job, int attempts) {
  return await<ajo::JobToken>([&](auto done) {
    client_.submit_with_retry(job, attempts, std::move(done));
  });
}

Result<ajo::Outcome> SyncClient::query(ajo::JobToken token,
                                       ajo::QueryService::Detail detail) {
  return await<ajo::Outcome>(
      [&](auto done) { client_.query(token, detail, std::move(done)); });
}

Result<std::vector<njs::JobSummary>> SyncClient::list() {
  return await<std::vector<njs::JobSummary>>(
      [&](auto done) { client_.list(std::move(done)); });
}

Status SyncClient::control(ajo::JobToken token,
                           ajo::ControlService::Command command) {
  return to_status(await<Ack>([&](auto done) {
    client_.control(token, command, as_ack(std::move(done)));
  }));
}

Result<uspace::FileBlob> SyncClient::fetch_output(ajo::JobToken token,
                                                  const std::string& name) {
  return await<uspace::FileBlob>([&](auto done) {
    client_.fetch_output(token, name, std::move(done));
  });
}

Result<ajo::Outcome> SyncClient::wait_for_completion(ajo::JobToken token,
                                                     sim::Time interval) {
  return await<ajo::Outcome>([&](auto done) {
    client_.wait_for_completion(token, interval, std::move(done));
  });
}

Result<obs::MetricsSnapshot> SyncClient::fetch_metrics() {
  return await<obs::MetricsSnapshot>(
      [&](auto done) { client_.fetch_metrics(std::move(done)); });
}

Result<obs::TraceTimeline> SyncClient::fetch_trace(ajo::JobToken token) {
  return await<obs::TraceTimeline>(
      [&](auto done) { client_.fetch_trace(token, std::move(done)); });
}

Result<njs::JournalInfo> SyncClient::inspect_journal() {
  return await<njs::JournalInfo>(
      [&](auto done) { client_.inspect_journal(std::move(done)); });
}

Result<gateway::SessionGrant> SyncClient::open_session(
    std::int64_t requested_ttl) {
  return await<gateway::SessionGrant>([&](auto done) {
    client_.open_session(requested_ttl, std::move(done));
  });
}

Result<gateway::SessionGrant> SyncClient::refresh_session() {
  return await<gateway::SessionGrant>(
      [&](auto done) { client_.refresh_session(std::move(done)); });
}

Status SyncClient::close_session() {
  return to_status(await<Ack>(
      [&](auto done) { client_.close_session(as_ack(std::move(done))); }));
}

Result<std::vector<njs::StorageInfo>> SyncClient::list_storages() {
  return await<std::vector<njs::StorageInfo>>(
      [&](auto done) { client_.list_storages(std::move(done)); });
}

Result<std::vector<std::string>> SyncClient::storage_files(
    ajo::JobToken token) {
  return await<std::vector<std::string>>(
      [&](auto done) { client_.storage_files(token, std::move(done)); });
}

Result<std::uint64_t> SyncClient::reap_storage(ajo::JobToken token) {
  return await<std::uint64_t>(
      [&](auto done) { client_.reap_storage(token, std::move(done)); });
}

Result<WorkflowRun> SyncClient::one_run(const std::vector<WorkflowStep>& steps,
                                        const WorkflowParameters& parameters,
                                        WorkflowManager::Options options) {
  WorkflowManager manager(client_, options);
  return wait(manager.one_run(steps, parameters));
}

Result<WorkflowRun> SyncClient::one_run(
    const std::vector<std::string>& command_lines,
    const WorkflowParameters& parameters, WorkflowManager::Options options) {
  WorkflowManager manager(client_, options);
  return wait(manager.one_run(command_lines, parameters));
}

}  // namespace unicore::client
