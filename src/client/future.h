// Promise/Future pair behind WorkflowManager::one_run, the one client
// call that returns a Future: one_run composes UnicoreClient's callback
// operations (session, consign, poll, reap) and settles a promise when
// the whole workflow is done. Portal-style callers attach a then()
// continuation; straight-line code blocks on it with SyncClient::wait().
// Every other client operation takes a completion callback.
//
// Single-threaded by design — the simulation engine drives everything
// on one thread, so the shared state needs no locking. A future settles
// exactly once with a util::Result<T> (value or error); at most one
// continuation may be attached, and attaching it after settlement fires
// it immediately.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "util/result.h"

namespace unicore::client {

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  Future() = default;

  /// False for a default-constructed future with no producer attached.
  bool valid() const { return state_ != nullptr; }
  /// True once the producer settled the future.
  bool ready() const { return state_ && state_->result.has_value(); }

  /// Attaches the continuation; runs immediately when already settled.
  /// One continuation per future — a second call replaces an unfired
  /// one.
  void then(std::function<void(const util::Result<T>&)> fn) {
    if (!state_) return;
    if (state_->result.has_value()) {
      fn(*state_->result);
      return;
    }
    state_->continuation = std::move(fn);
  }

  /// The settled value; only meaningful when ready().
  const util::Result<T>& result() const { return *state_->result; }

 private:
  friend class Promise<T>;
  struct State {
    std::optional<util::Result<T>> result;
    std::function<void(const util::Result<T>&)> continuation;
  };
  explicit Future(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<typename Future<T>::State>()) {}

  Future<T> future() const { return Future<T>(state_); }

  /// Settles the future. The first settlement wins; later calls are
  /// ignored (mirrors how a request can race its own timeout).
  void set(util::Result<T> value) const {
    if (state_->result.has_value()) return;
    state_->result.emplace(std::move(value));
    if (state_->continuation) {
      auto fn = std::move(state_->continuation);
      state_->continuation = nullptr;
      fn(*state_->result);
    }
  }

 private:
  std::shared_ptr<typename Future<T>::State> state_;
};

}  // namespace unicore::client
