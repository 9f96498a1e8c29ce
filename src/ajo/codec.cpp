#include "ajo/codec.h"

#include "ajo/job.h"
#include "ajo/services.h"
#include "ajo/tasks.h"

namespace unicore::ajo {

using util::ByteReader;
using util::Bytes;
using util::ByteView;
using util::ByteWriter;
using util::ErrorCode;
using util::Result;

const char* action_type_name(ActionType type) {
  switch (type) {
    case ActionType::kAbstractJobObject: return "AbstractJobObject";
    case ActionType::kCompileTask: return "CompileTask";
    case ActionType::kLinkTask: return "LinkTask";
    case ActionType::kUserTask: return "UserTask";
    case ActionType::kExecuteScriptTask: return "ExecuteScriptTask";
    case ActionType::kImportTask: return "ImportTask";
    case ActionType::kExportTask: return "ExportTask";
    case ActionType::kTransferTask: return "TransferTask";
    case ActionType::kControlService: return "ControlService";
    case ActionType::kListService: return "ListService";
    case ActionType::kQueryService: return "QueryService";
  }
  return "?";
}

const char* control_command_name(ControlService::Command c) {
  switch (c) {
    case ControlService::Command::kAbort: return "abort";
    case ControlService::Command::kHold: return "hold";
    case ControlService::Command::kRelease: return "release";
    case ControlService::Command::kDelete: return "delete";
  }
  return "?";
}

// ---- helpers ------------------------------------------------------------

namespace {

void write_resources(ByteWriter& w, const resources::ResourceSet& rs) {
  w.i64(rs.processors);
  w.i64(rs.wallclock_seconds);
  w.i64(rs.memory_mb);
  w.i64(rs.permanent_disk_mb);
  w.i64(rs.temporary_disk_mb);
}

resources::ResourceSet read_resources(ByteReader& r) {
  resources::ResourceSet rs;
  rs.processors = r.i64();
  rs.wallclock_seconds = r.i64();
  rs.memory_mb = r.i64();
  rs.permanent_disk_mb = r.i64();
  rs.temporary_disk_mb = r.i64();
  return rs;
}

void write_behavior(ByteWriter& w, const TaskBehavior& b) {
  w.f64(b.nominal_seconds);
  w.u32(static_cast<std::uint32_t>(b.exit_code));
  w.str(b.stdout_text);
  w.str(b.stderr_text);
  w.varint(b.output_files.size());
  for (const auto& [name, size] : b.output_files) {
    w.str(name);
    w.u64(size);
  }
}

TaskBehavior read_behavior(ByteReader& r) {
  TaskBehavior b;
  b.nominal_seconds = r.f64();
  b.exit_code = static_cast<std::int32_t>(r.u32());
  b.stdout_text = r.str();
  b.stderr_text = r.str();
  std::uint64_t n = r.count();
  b.output_files.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    std::uint64_t size = r.u64();
    b.output_files.emplace_back(std::move(name), size);
  }
  return b;
}

void write_environment(ByteWriter& w,
                       const std::map<std::string, std::string>& env) {
  w.varint(env.size());
  for (const auto& [key, value] : env) {
    w.str(key);
    w.str(value);
  }
}

std::map<std::string, std::string> read_environment(ByteReader& r) {
  std::map<std::string, std::string> env;
  std::uint64_t n = r.count();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    env[key] = r.str();
  }
  return env;
}

void read_execute_fields(ByteReader& r, ExecuteTask& task) {
  task.set_resource_request(read_resources(r));
  task.arguments = r.strings();
  task.environment = read_environment(r);
  task.behavior = read_behavior(r);
}

}  // namespace

// ---- encode_body implementations ---------------------------------------

void ExecuteTask::encode_execute_fields(ByteWriter& w) const {
  write_resources(w, resource_request());
  w.strings(arguments);
  write_environment(w, environment);
  write_behavior(w, behavior);
}

void CompileTask::encode_body(ByteWriter& w) const {
  encode_execute_fields(w);
  w.str(source_file);
  w.str(object_file);
  w.str(language);
  w.strings(compiler_flags);
}

void LinkTask::encode_body(ByteWriter& w) const {
  encode_execute_fields(w);
  w.strings(object_files);
  w.str(executable);
  w.strings(libraries);
}

void UserTask::encode_body(ByteWriter& w) const {
  encode_execute_fields(w);
  w.str(executable);
}

void ExecuteScriptTask::encode_body(ByteWriter& w) const {
  encode_execute_fields(w);
  w.str(script);
  w.str(interpreter);
}

void ImportTask::encode_body(ByteWriter& w) const {
  write_resources(w, resource_request());
  w.u8(static_cast<std::uint8_t>(source));
  w.blob(inline_content);
  w.str(xspace_source.volume);
  w.str(xspace_source.path);
  w.str(uspace_name);
}

void ExportTask::encode_body(ByteWriter& w) const {
  write_resources(w, resource_request());
  w.str(uspace_name);
  w.str(destination.volume);
  w.str(destination.path);
}

void TransferTask::encode_body(ByteWriter& w) const {
  write_resources(w, resource_request());
  w.str(uspace_name);
  w.varint(target_job);
  w.str(rename_to);
}

void ControlService::encode_body(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(command));
  w.varint(target);
}

void ListService::encode_body(ByteWriter&) const {}

void QueryService::encode_body(ByteWriter& w) const {
  w.varint(target);
  w.u8(static_cast<std::uint8_t>(detail));
}

void AbstractJobObject::encode_body(ByteWriter& w) const {
  w.str(usite);
  w.str(vsite);
  user.encode(w);
  w.str(account_group);
  w.str(site_security_info);
  w.varint(children_.size());
  for (const auto& child : children_) encode_action(w, *child);
  w.varint(dependencies_.size());
  for (const Dependency& dep : dependencies_) {
    w.varint(dep.predecessor);
    w.varint(dep.successor);
    w.strings(dep.files);
  }
}

// ---- top-level codec ------------------------------------------------------

void encode_action(ByteWriter& w, const AbstractAction& action) {
  w.u8(static_cast<std::uint8_t>(action.type()));
  w.varint(action.id());
  w.str(action.name());
  action.encode_body(w);
}

Bytes encode_action(const AbstractAction& action) {
  ByteWriter w;
  encode_action(w, action);
  return w.take();
}

namespace {

// Null once `r` has failed; the caller checks `r` before using it.
std::unique_ptr<AbstractAction> decode_action_impl(ByteReader& r,
                                                   std::size_t depth) {
  if (depth > util::kMaxNesting) {
    r.fail(util::make_error(ErrorCode::kInvalidArgument,
                            "ajo: job groups nested too deeply"));
    return nullptr;
  }
  auto type = static_cast<ActionType>(r.u8());
  ActionId id = r.varint();
  std::string name = r.str();

  std::unique_ptr<AbstractAction> action;
  switch (type) {
    case ActionType::kCompileTask: {
      auto task = std::make_unique<CompileTask>();
      read_execute_fields(r, *task);
      task->source_file = r.str();
      task->object_file = r.str();
      task->language = r.str();
      task->compiler_flags = r.strings();
      action = std::move(task);
      break;
    }
    case ActionType::kLinkTask: {
      auto task = std::make_unique<LinkTask>();
      read_execute_fields(r, *task);
      task->object_files = r.strings();
      task->executable = r.str();
      task->libraries = r.strings();
      action = std::move(task);
      break;
    }
    case ActionType::kUserTask: {
      auto task = std::make_unique<UserTask>();
      read_execute_fields(r, *task);
      task->executable = r.str();
      action = std::move(task);
      break;
    }
    case ActionType::kExecuteScriptTask: {
      auto task = std::make_unique<ExecuteScriptTask>();
      read_execute_fields(r, *task);
      task->script = r.str();
      task->interpreter = r.str();
      action = std::move(task);
      break;
    }
    case ActionType::kImportTask: {
      auto task = std::make_unique<ImportTask>();
      task->set_resource_request(read_resources(r));
      task->source = static_cast<ImportTask::Source>(r.u8());
      task->inline_content = r.blob();
      task->xspace_source.volume = r.str();
      task->xspace_source.path = r.str();
      task->uspace_name = r.str();
      action = std::move(task);
      break;
    }
    case ActionType::kExportTask: {
      auto task = std::make_unique<ExportTask>();
      task->set_resource_request(read_resources(r));
      task->uspace_name = r.str();
      task->destination.volume = r.str();
      task->destination.path = r.str();
      action = std::move(task);
      break;
    }
    case ActionType::kTransferTask: {
      auto task = std::make_unique<TransferTask>();
      task->set_resource_request(read_resources(r));
      task->uspace_name = r.str();
      task->target_job = r.varint();
      task->rename_to = r.str();
      action = std::move(task);
      break;
    }
    case ActionType::kControlService: {
      auto service = std::make_unique<ControlService>();
      service->command = static_cast<ControlService::Command>(r.u8());
      service->target = r.varint();
      action = std::move(service);
      break;
    }
    case ActionType::kListService: {
      action = std::make_unique<ListService>();
      break;
    }
    case ActionType::kQueryService: {
      auto service = std::make_unique<QueryService>();
      service->target = r.varint();
      service->detail = static_cast<QueryService::Detail>(r.u8());
      action = std::move(service);
      break;
    }
    case ActionType::kAbstractJobObject: {
      auto job = std::make_unique<AbstractJobObject>();
      job->usite = r.str();
      job->vsite = r.str();
      job->user = crypto::DistinguishedName::decode(r);
      job->account_group = r.str();
      job->site_security_info = r.str();
      std::uint64_t n_children = r.count();
      for (std::uint64_t i = 0; i < n_children; ++i) {
        auto child = decode_action_impl(r, depth + 1);
        if (!r.ok()) return nullptr;
        // Bypass add(): ids come from the wire, not the counter.
        ActionId child_id = child->id();
        job->add(std::move(child));
        job->children().back()->set_id(child_id);
      }
      std::uint64_t n_deps = r.count();
      for (std::uint64_t i = 0; i < n_deps; ++i) {
        ActionId predecessor = r.varint();
        ActionId successor = r.varint();
        job->add_dependency(predecessor, successor, r.strings());
      }
      action = std::move(job);
      break;
    }
    default:
      r.fail(util::make_error(ErrorCode::kInvalidArgument,
                              "ajo: unknown action type tag " +
                                  std::to_string(static_cast<int>(type))));
      return nullptr;
  }
  action->set_id(id);
  action->set_name(std::move(name));
  return action;
}

}  // namespace

Result<std::unique_ptr<AbstractAction>> decode_action(ByteView wire) {
  ByteReader r(wire);
  auto action = decode_action_impl(r, 0);
  if (util::Status done = r.finish(); !done.ok()) return done.error();
  return action;
}

}  // namespace unicore::ajo
