// ReplyTable — request/reply correlation for one channel or channel
// pool: the bookkeeping of the high-level protocol's asynchronous
// exchange (§5.3), kept once for the client's main channel, each peer
// Usite's pool and each bundle of transfer rails.
//
// The table numbers its requests (ids unique per table), arms one
// deadline per request, decodes a whole kReply before resolving its
// request, and fails the requests of one pool slot (a single channel is
// slot 0). Every request ends exactly once: by its reply, its deadline
// or a failure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/engine.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::server {

class ReplyTable {
 public:
  using Handler = std::function<void(util::Result<util::Bytes>)>;
  /// Runs when a deadline fires, before the request's handler: the
  /// owner's accounting, and the text of the kTimeout error.
  using TimeoutText = std::function<std::string()>;

  ReplyTable(sim::Engine& engine, TimeoutText timeout_text);

  ReplyTable(const ReplyTable&) = delete;
  ReplyTable& operator=(const ReplyTable&) = delete;

  /// Registers a request sent on pool `slot` and arms its deadline,
  /// `timeout` from now; returns the id the request carries on the
  /// wire. Call it before the send: a send that fails at once fails its
  /// slot, and with it this request.
  std::uint64_t add(sim::Time timeout, std::size_t slot, Handler handler);

  /// Takes one inbound message. A kReply is decoded whole before its
  /// request is touched, then resolves it. A reply that cannot be
  /// decoded is dropped, and its request ends by its own deadline; so is
  /// a reply whose request already ended. Returns false, leaving the
  /// message to the owner, when it is not a kReply.
  bool resolve(util::ByteView wire);

  /// Fails every request sent on `slot`, in id order. Requests that the
  /// handlers add meanwhile stay.
  void fail(std::size_t slot, const util::Error& error);

  /// Requests that ended by their deadline or by fail(). A reply, an
  /// error reply too, never counts.
  std::uint64_t failed() const { return failed_; }

 private:
  struct Request {
    Handler handler;
    sim::EventId deadline = 0;
    std::size_t slot = 0;
  };

  void expire(std::uint64_t id);

  sim::Engine& engine_;
  TimeoutText timeout_text_;
  std::map<std::uint64_t, Request> requests_;
  std::uint64_t next_id_ = 1;
  std::uint64_t failed_ = 0;
  /// Deadlines reach the table through this cell and hold it weakly, so
  /// a deadline that fires after the table is gone does nothing.
  std::shared_ptr<ReplyTable*> self_ = std::make_shared<ReplyTable*>(this);
};

}  // namespace unicore::server
