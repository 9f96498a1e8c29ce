#include "ajo/outcome.h"

namespace unicore::ajo {

using util::ByteReader;
using util::ByteWriter;

const char* action_status_name(ActionStatus s) {
  switch (s) {
    case ActionStatus::kPending: return "PENDING";
    case ActionStatus::kHeld: return "HELD";
    case ActionStatus::kConsigned: return "CONSIGNED";
    case ActionStatus::kQueued: return "QUEUED";
    case ActionStatus::kRunning: return "RUNNING";
    case ActionStatus::kSuccessful: return "SUCCESSFUL";
    case ActionStatus::kNotSuccessful: return "NOT_SUCCESSFUL";
    case ActionStatus::kAborted: return "ABORTED";
    case ActionStatus::kNeverRun: return "NEVER_RUN";
  }
  return "?";
}

bool is_terminal(ActionStatus s) {
  return s == ActionStatus::kSuccessful || s == ActionStatus::kNotSuccessful ||
         s == ActionStatus::kAborted || s == ActionStatus::kNeverRun;
}

const Outcome* Outcome::find(ActionId id) const {
  if (action == id) return this;
  for (const Outcome& child : children)
    if (const Outcome* hit = child.find(id)) return hit;
  return nullptr;
}

Outcome* Outcome::find(ActionId id) {
  return const_cast<Outcome*>(
      static_cast<const Outcome*>(this)->find(id));
}

std::size_t Outcome::count_if(bool (*pred)(ActionStatus)) const {
  std::size_t count = pred(status) ? 1 : 0;
  for (const Outcome& child : children) count += child.count_if(pred);
  return count;
}

bool Outcome::all_terminal() const {
  if (!is_terminal(status)) return false;
  for (const Outcome& child : children)
    if (!child.all_terminal()) return false;
  return true;
}

namespace {
enum DetailTag : std::uint8_t {
  kNone = 0,
  kExecute = 1,
  kFile = 2,
  kService = 3,
};
}  // namespace

void Outcome::encode(ByteWriter& w) const {
  w.varint(action);
  w.u8(static_cast<std::uint8_t>(type));
  w.str(name);
  w.u8(static_cast<std::uint8_t>(status));
  w.str(message);
  w.i64(submitted_at);
  w.i64(started_at);
  w.i64(finished_at);

  if (const auto* exec = std::get_if<ExecuteOutcome>(&detail)) {
    w.u8(kExecute);
    w.u32(static_cast<std::uint32_t>(exec->exit_code));
    w.str(exec->stdout_text);
    w.str(exec->stderr_text);
  } else if (const auto* file = std::get_if<FileOutcome>(&detail)) {
    w.u8(kFile);
    w.strings(file->files);
    w.u64(file->bytes_moved);
  } else if (const auto* service = std::get_if<ServiceOutcome>(&detail)) {
    w.u8(kService);
    w.str(service->reply);
  } else {
    w.u8(kNone);
  }

  w.varint(children.size());
  for (const Outcome& child : children) child.encode(w);
}

namespace {

Outcome decode_tree(ByteReader& r, std::size_t depth) {
  Outcome out;
  if (depth > util::kMaxNesting) {
    r.fail(util::make_error(util::ErrorCode::kInvalidArgument,
                            "outcome: nested too deeply"));
    return out;
  }
  out.action = r.varint();
  out.type = static_cast<ActionType>(r.u8());
  out.name = r.str();
  out.status = static_cast<ActionStatus>(r.u8());
  out.message = r.str();
  out.submitted_at = r.i64();
  out.started_at = r.i64();
  out.finished_at = r.i64();

  switch (r.u8()) {
    case kNone:
      break;
    case kExecute: {
      ExecuteOutcome exec;
      exec.exit_code = static_cast<std::int32_t>(r.u32());
      exec.stdout_text = r.str();
      exec.stderr_text = r.str();
      out.detail = std::move(exec);
      break;
    }
    case kFile: {
      FileOutcome file;
      file.files = r.strings();
      file.bytes_moved = r.u64();
      out.detail = std::move(file);
      break;
    }
    case kService: {
      ServiceOutcome service;
      service.reply = r.str();
      out.detail = std::move(service);
      break;
    }
    default:
      r.fail(util::make_error(util::ErrorCode::kInvalidArgument,
                              "outcome: unknown detail tag"));
      return out;
  }

  std::uint64_t n_children = r.count();
  out.children.reserve(n_children);
  for (std::uint64_t i = 0; i < n_children && r.ok(); ++i)
    out.children.push_back(decode_tree(r, depth + 1));
  return out;
}

}  // namespace

Outcome Outcome::decode(ByteReader& r) { return decode_tree(r, 0); }

std::string Outcome::to_tree_string(int indent) const {
  std::string out(static_cast<std::size_t>(indent) * 2, ' ');
  out += name.empty() ? std::string(action_type_name(type)) : name;
  out += " [";
  out += action_status_name(status);
  out += "]";
  if (!message.empty()) out += " — " + message;
  out += "\n";
  for (const Outcome& child : children)
    out += child.to_tree_string(indent + 1);
  return out;
}

}  // namespace unicore::ajo
