// The Outcome hierarchy (§5.3): "A Java class Outcome is defined to
// contain the status of an abstract action and the results of its
// execution. Outcome contains a subclass for each subclass of
// AbstractAction which are associated to give the results of an abstract
// action." Reproduced here as one Outcome node per action with a
// per-family detail payload, recursing for job groups.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ajo/action.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::ajo {

/// Lifecycle of an action as observed by the JMC. The JPA/JMC colour
/// their icons from this value (§5.7).
enum class ActionStatus : std::uint8_t {
  kPending = 0,        // known to the NJS, predecessors not yet done
  kHeld = 1,           // dispatch suspended by ControlService(kHold)
  kConsigned = 2,      // shipped to a peer NJS, awaiting its report
  kQueued = 3,         // in the destination batch queue
  kRunning = 4,        // executing on the destination system
  kSuccessful = 5,
  kNotSuccessful = 6,  // ran and failed (nonzero exit, limit kill, ...)
  kAborted = 7,        // killed by ControlService(kAbort)
  kNeverRun = 8,       // skipped because a predecessor failed
};

const char* action_status_name(ActionStatus s);

/// True for the states in which no further change can occur.
bool is_terminal(ActionStatus s);

/// Results specific to the ExecuteTask family.
struct ExecuteOutcome {
  std::int32_t exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  bool operator==(const ExecuteOutcome&) const = default;
};

/// Results specific to the FileTask family.
struct FileOutcome {
  std::vector<std::string> files;  // files created / moved
  std::uint64_t bytes_moved = 0;
  bool operator==(const FileOutcome&) const = default;
};

/// Results of a service invocation (listing text, acknowledgements).
struct ServiceOutcome {
  std::string reply;
  bool operator==(const ServiceOutcome&) const = default;
};

/// Status + results of one abstract action; recursive for job groups.
struct Outcome {
  ActionId action = 0;
  ActionType type = ActionType::kAbstractJobObject;
  std::string name;
  ActionStatus status = ActionStatus::kPending;
  std::string message;  // human-readable diagnostic

  // Timestamps in simulation time; -1 = not reached.
  sim::Time submitted_at = -1;
  sim::Time started_at = -1;
  sim::Time finished_at = -1;

  std::variant<std::monostate, ExecuteOutcome, FileOutcome, ServiceOutcome>
      detail;

  std::vector<Outcome> children;  // populated for AbstractJobObjects

  bool operator==(const Outcome&) const = default;

  /// Finds the outcome node for `id` in this subtree (nullptr if absent).
  const Outcome* find(ActionId id) const;
  Outcome* find(ActionId id);

  /// Counts subtree nodes whose status satisfies `pred`.
  std::size_t count_if(bool (*pred)(ActionStatus)) const;

  /// True when every node in the subtree reached a terminal status.
  bool all_terminal() const;

  void encode(util::ByteWriter& w) const;
  static Outcome decode(util::ByteReader& r);

  /// Renders an indented status tree (the textual analogue of the JMC's
  /// coloured icon display).
  std::string to_tree_string(int indent = 0) const;
};

}  // namespace unicore::ajo
