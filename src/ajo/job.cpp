#include "ajo/job.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "ajo/codec.h"
#include "ajo/tasks.h"

namespace unicore::ajo {

using util::ErrorCode;
using util::Result;
using util::Status;

AbstractJobObject::AbstractJobObject(const AbstractJobObject& other)
    : AbstractAction(other),
      usite(other.usite),
      vsite(other.vsite),
      user(other.user),
      account_group(other.account_group),
      site_security_info(other.site_security_info),
      dependencies_(other.dependencies_),
      next_child_id_(other.next_child_id_) {
  children_.reserve(other.children_.size());
  for (const auto& child : other.children_) children_.push_back(child->clone());
}

AbstractJobObject& AbstractJobObject::operator=(
    const AbstractJobObject& other) {
  if (this == &other) return *this;
  AbstractJobObject copy(other);
  *this = std::move(copy);
  return *this;
}

ActionId AbstractJobObject::add(std::unique_ptr<AbstractAction> action) {
  ActionId id = next_child_id_++;
  action->set_id(id);
  children_.push_back(std::move(action));
  return id;
}

void AbstractJobObject::add_dependency(ActionId predecessor,
                                       ActionId successor,
                                       std::vector<std::string> files) {
  dependencies_.push_back({predecessor, successor, std::move(files)});
}

AbstractAction* AbstractJobObject::find_child(ActionId id) const {
  for (const auto& child : children_)
    if (child->id() == id) return child.get();
  return nullptr;
}

std::size_t AbstractJobObject::total_actions() const {
  std::size_t count = 1;
  for (const auto& child : children_) {
    if (child->is_job())
      count += static_cast<const AbstractJobObject&>(*child).total_actions();
    else
      ++count;
  }
  return count;
}

std::size_t AbstractJobObject::depth() const {
  std::size_t deepest = 0;
  for (const auto& child : children_)
    if (child->is_job())
      deepest = std::max(
          deepest, static_cast<const AbstractJobObject&>(*child).depth());
  return deepest + 1;
}

void AbstractJobObject::visit(
    const std::function<void(const AbstractAction&)>& fn) const {
  fn(*this);
  for (const auto& child : children_) {
    if (child->is_job())
      static_cast<const AbstractJobObject&>(*child).visit(fn);
    else
      fn(*child);
  }
}

Result<std::vector<ActionId>> AbstractJobObject::topological_order() const {
  // Kahn's algorithm; among ready nodes the smallest id goes first so the
  // order is deterministic and matches insertion order absent constraints.
  std::map<ActionId, std::size_t> in_degree;
  std::map<ActionId, std::vector<ActionId>> successors;
  for (const auto& child : children_) in_degree[child->id()] = 0;
  for (const Dependency& dep : dependencies_) {
    successors[dep.predecessor].push_back(dep.successor);
    ++in_degree[dep.successor];
  }

  std::set<ActionId> ready;
  for (const auto& [id, degree] : in_degree)
    if (degree == 0) ready.insert(id);

  std::vector<ActionId> order;
  order.reserve(in_degree.size());
  while (!ready.empty()) {
    ActionId id = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(id);
    for (ActionId next : successors[id])
      if (--in_degree[next] == 0) ready.insert(next);
  }
  if (order.size() != in_degree.size())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "job graph contains a cycle");
  return order;
}

Status AbstractJobObject::validate() const {
  // Unique ids at this level.
  std::set<ActionId> ids;
  for (const auto& child : children_) {
    if (child->id() == 0)
      return util::make_error(ErrorCode::kInvalidArgument,
                              "child action with unassigned id");
    if (!ids.insert(child->id()).second)
      return util::make_error(ErrorCode::kInvalidArgument,
                              "duplicate action id " +
                                  std::to_string(child->id()));
  }

  // Dependency endpoints must exist at this level and differ.
  for (const Dependency& dep : dependencies_) {
    if (dep.predecessor == dep.successor)
      return util::make_error(ErrorCode::kInvalidArgument,
                              "self-dependency on action " +
                                  std::to_string(dep.predecessor));
    if (!ids.count(dep.predecessor) || !ids.count(dep.successor))
      return util::make_error(
          ErrorCode::kInvalidArgument,
          "dependency references unknown action " +
              std::to_string(ids.count(dep.predecessor) ? dep.successor
                                                        : dep.predecessor));
  }

  // Acyclicity.
  if (auto order = topological_order(); !order) return order.error();

  // Transfer targets must be sub-jobs at this level.
  for (const auto& child : children_) {
    if (child->type() != ActionType::kTransferTask) continue;
    const auto& transfer = static_cast<const TransferTask&>(*child);
    AbstractAction* target = find_child(transfer.target_job);
    if (target == nullptr || !target->is_job())
      return util::make_error(
          ErrorCode::kInvalidArgument,
          "transfer task " + std::to_string(child->id()) +
              " targets a non-job action " +
              std::to_string(transfer.target_job));
  }

  // A job level that contains tasks must name its destination Vsite.
  bool has_tasks = std::any_of(
      children_.begin(), children_.end(),
      [](const auto& child) { return child->is_task(); });
  if (has_tasks && vsite.empty())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "job group with tasks lacks a destination vsite");

  // Recurse into sub-jobs.
  for (const auto& child : children_) {
    if (!child->is_job()) continue;
    const auto& sub = static_cast<const AbstractJobObject&>(*child);
    if (sub.usite.empty() && sub.vsite.empty() && usite.empty())
      return util::make_error(ErrorCode::kInvalidArgument,
                              "sub-job lacks a destination");
    if (auto status = sub.validate(); !status.ok()) return status;
  }
  return Status::ok_status();
}

ActionId AbstractJobObject::renumber(ActionId first) {
  // Fresh ids across the subtree, fixing up dependency and transfer-target
  // references at each level.
  std::map<ActionId, ActionId> remap;
  ActionId next = first;
  for (auto& child : children_) {
    remap[child->id()] = next;
    child->set_id(next++);
  }
  for (Dependency& dep : dependencies_) {
    dep.predecessor = remap.at(dep.predecessor);
    dep.successor = remap.at(dep.successor);
  }
  for (auto& child : children_) {
    if (child->type() == ActionType::kTransferTask) {
      auto& transfer = static_cast<TransferTask&>(*child);
      if (auto it = remap.find(transfer.target_job); it != remap.end())
        transfer.target_job = it->second;
    }
  }
  for (auto& child : children_) {
    if (child->is_job())
      next = static_cast<AbstractJobObject&>(*child).renumber(next);
  }
  next_child_id_ = next;
  return next;
}

// ---- SignedAjo ------------------------------------------------------------

util::Bytes SignedAjo::encode() const {
  util::ByteWriter w;
  util::Bytes job_wire = encode_action(job);
  w.blob(job_wire);
  w.blob(user_certificate.der());
  w.u64(signature.value);
  return w.take();
}

Result<SignedAjo> SignedAjo::decode(util::ByteView wire) {
  util::ByteReader r(wire);
  util::Bytes job_wire = r.blob();
  util::Bytes cert_der = r.blob();
  SignedAjo out;
  out.signature.value = r.u64();
  if (util::Status done = r.finish(); !done.ok()) return done.error();
  auto action = decode_action(job_wire);
  if (!action) return action.error();
  if (!action.value()->is_job())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "signed AJO root is not a job object");
  out.job = std::move(static_cast<AbstractJobObject&>(*action.value()));
  auto cert = crypto::Certificate::from_der(cert_der);
  if (!cert) return cert.error();
  out.user_certificate = std::move(cert.value());
  return out;
}

SignedAjo sign_ajo(const AbstractJobObject& job,
                   const crypto::Credential& user) {
  SignedAjo out;
  out.job = job;
  out.user_certificate = user.certificate;
  out.signature = crypto::sign_message(user.key, encode_action(out.job));
  return out;
}

bool verify_ajo_signature(const SignedAjo& signed_ajo) {
  return crypto::verify_message(signed_ajo.user_certificate.subject_key,
                                encode_action(signed_ajo.job),
                                signed_ajo.signature);
}

}  // namespace unicore::ajo
