#include "client/workflow.h"

#include <memory>
#include <utility>
#include <variant>

#include "ajo/tasks.h"

namespace unicore::client {

using util::ErrorCode;
using util::Result;

namespace {

/// Lifts the per-step results out of the outcome tree: every direct
/// child of the root job is one workflow step.
void collect_steps(WorkflowRun& run) {
  for (const auto& child : run.outcome.children) {
    StepResult result;
    result.status = child.status;
    if (const auto* exec = std::get_if<ajo::ExecuteOutcome>(&child.detail)) {
      result.exit_code = exec->exit_code;
      result.stdout_text = exec->stdout_text;
      result.stderr_text = exec->stderr_text;
    }
    run.steps[child.name] = std::move(result);
  }
}

}  // namespace

WorkflowManager::WorkflowManager(UnicoreClient& client, Options options)
    : client_(client), options_(options) {}

Result<ajo::AbstractJobObject> WorkflowManager::compile(
    const std::vector<WorkflowStep>& steps,
    const WorkflowParameters& parameters) const {
  if (steps.empty())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "workflow has no steps");
  ajo::AbstractJobObject job;
  job.set_name(parameters.job_name);
  job.usite = parameters.usite;
  job.vsite = parameters.vsite;
  job.user = client_.user().certificate.subject;
  job.account_group = parameters.account_group;

  std::map<std::string, ajo::ActionId> ids;
  for (const auto& step : steps) {
    if (step.name.empty())
      return util::make_error(ErrorCode::kInvalidArgument,
                              "workflow step without a name");
    if (ids.count(step.name) != 0)
      return util::make_error(ErrorCode::kInvalidArgument,
                              "duplicate workflow step: " + step.name);
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name(step.name);
    task->script = step.script;
    task->behavior = step.behavior;
    task->set_resource_request(step.resources);
    ids[step.name] = job.add(std::move(task));
  }
  for (const auto& step : steps)
    for (const auto& predecessor : step.after) {
      auto it = ids.find(predecessor);
      if (it == ids.end())
        return util::make_error(ErrorCode::kInvalidArgument,
                                "step '" + step.name +
                                    "' depends on unknown step '" +
                                    predecessor + "'");
      job.add_dependency(it->second, ids[step.name], step.files);
    }
  if (auto status = job.validate(); !status.ok()) return status.error();
  return job;
}

Future<WorkflowRun> WorkflowManager::one_run(
    const std::vector<WorkflowStep>& steps,
    const WorkflowParameters& parameters, bool wait) {
  Promise<WorkflowRun> promise;
  auto compiled = compile(steps, parameters);
  if (!compiled) {
    promise.set(compiled.error());
    return promise.future();
  }
  auto job =
      std::make_shared<ajo::AbstractJobObject>(std::move(compiled.value()));
  const sim::Time poll = parameters.poll_interval;

  auto submit_and_wait = [this, promise, job, poll, wait] {
    client_.submit(*job, [this, promise, poll,
                          wait](Result<ajo::JobToken> token) {
      if (!token) {
        promise.set(token.error());
        return;
      }
      WorkflowRun run;
      run.token = token.value();
      if (!wait) {
        promise.set(std::move(run));
        return;
      }
      auto pending = std::make_shared<WorkflowRun>(std::move(run));
      client_.wait_for_completion(
          token.value(), poll,
          [this, promise, pending](Result<ajo::Outcome> outcome) {
            if (!outcome) {
              promise.set(outcome.error());
              return;
            }
            pending->outcome = std::move(outcome.value());
            collect_steps(*pending);
            if (!options_.clean_job_storages) {
              promise.set(std::move(*pending));
              return;
            }
            // Best-effort quota hygiene: a failed reap (job pinned,
            // server restarted, ...) still resolves the run.
            client_.reap_storage(
                pending->token,
                [promise, pending](Result<std::uint64_t> freed) {
                  pending->storage_reaped = freed.ok();
                  promise.set(std::move(*pending));
                });
          });
    });
  };

  if (options_.use_session && !client_.has_session()) {
    client_.open_session(
        options_.session_ttl,
        [promise, submit_and_wait](Result<gateway::SessionGrant> grant) {
          if (!grant) {
            promise.set(grant.error());
            return;
          }
          submit_and_wait();
        });
  } else {
    submit_and_wait();
  }
  return promise.future();
}

Future<WorkflowRun> WorkflowManager::one_run(
    const std::vector<std::string>& command_lines,
    const WorkflowParameters& parameters, bool wait) {
  std::vector<WorkflowStep> steps;
  steps.reserve(command_lines.size());
  for (std::size_t i = 0; i < command_lines.size(); ++i) {
    WorkflowStep step;
    step.name = "step-" + std::to_string(i + 1);
    step.script = command_lines[i];
    if (i > 0) step.after.push_back(steps.back().name);
    steps.push_back(std::move(step));
  }
  return one_run(steps, parameters, wait);
}

}  // namespace unicore::client
