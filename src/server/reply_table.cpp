#include "server/reply_table.h"

#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/log.h"

namespace unicore::server {

using util::Bytes;
using util::Result;

ReplyTable::ReplyTable(sim::Engine& engine, TimeoutText timeout_text)
    : engine_(engine), timeout_text_(std::move(timeout_text)) {}

std::uint64_t ReplyTable::add(sim::Time timeout, std::size_t slot,
                              Handler handler) {
  std::uint64_t id = next_id_++;
  sim::EventId deadline = engine_.after(
      timeout, [self = std::weak_ptr<ReplyTable*>(self_), id] {
        if (auto table = self.lock()) (*table)->expire(id);
      });
  requests_.emplace(id, Request{std::move(handler), deadline, slot});
  return id;
}

void ReplyTable::expire(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  Handler handler = std::move(it->second.handler);
  requests_.erase(it);
  ++failed_;
  std::string text = timeout_text_();
  handler(util::make_error(util::ErrorCode::kTimeout, std::move(text)));
}

bool ReplyTable::resolve(util::ByteView wire) {
  if (wire.empty() ||
      wire[0] != static_cast<std::uint8_t>(MessageType::kReply))
    return false;
  util::ByteReader reader{wire.subspan(1)};
  std::uint64_t id = reader.u64();
  Result<Bytes> outcome = reader.u8() != 0
                              ? Result<Bytes>(reader.raw(reader.remaining()))
                              : Result<Bytes>(decode_error(reader));
  if (!reader.finish().ok()) {
    UNICORE_WARN("server/replies") << "malformed reply dropped";
    return true;
  }
  auto it = requests_.find(id);
  if (it == requests_.end()) return true;  // its request already ended
  engine_.cancel(it->second.deadline);
  Handler handler = std::move(it->second.handler);
  requests_.erase(it);
  handler(std::move(outcome));
  return true;
}

void ReplyTable::fail(std::size_t slot, const util::Error& error) {
  // Collect before invoking: handlers may add requests on this slot.
  std::vector<Handler> failed;
  for (auto it = requests_.begin(); it != requests_.end();) {
    if (it->second.slot != slot) {
      ++it;
      continue;
    }
    engine_.cancel(it->second.deadline);
    failed.push_back(std::move(it->second.handler));
    it = requests_.erase(it);
  }
  failed_ += failed.size();
  for (auto& handler : failed) handler(error);
}

}  // namespace unicore::server
