// ReplyTable: request ids, one deadline per request, whole-reply
// decoding before resolution, and slot-scoped failure — the correlation
// the client, the peer links and the transfer rails share.
#include "server/reply_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace unicore::server {
namespace {

/// One request's completions, with the virtual time of each.
struct Outcomes {
  std::vector<util::Result<util::Bytes>> results;
  std::vector<sim::Time> times;

  ReplyTable::Handler handler(sim::Engine& engine) {
    return [this, &engine](util::Result<util::Bytes> result) {
      results.push_back(std::move(result));
      times.push_back(engine.now());
    };
  }
};

struct ReplyTableFixture : public ::testing::Test {
  sim::Engine engine;
  int timeouts = 0;
  ReplyTable table{engine, [this] {
                     ++timeouts;
                     return std::string("test request timed out");
                   }};
};

TEST_F(ReplyTableFixture, DeadlineFiresOnceExactlyTimeoutAfterAdd) {
  engine.run_until(sim::sec(1));
  Outcomes outcome;
  table.add(sim::sec(5), 0, outcome.handler(engine));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  ASSERT_EQ(outcome.results.size(), 1u);
  ASSERT_FALSE(outcome.results[0].ok());
  EXPECT_EQ(outcome.results[0].error().code, util::ErrorCode::kTimeout);
  EXPECT_EQ(outcome.results[0].error().message, "test request timed out");
  EXPECT_EQ(outcome.times[0], sim::sec(6));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(table.failed(), 1u);
}

TEST_F(ReplyTableFixture, IdsAreUniquePerTable) {
  Outcomes outcome;
  std::uint64_t first = table.add(sim::sec(5), 0, outcome.handler(engine));
  std::uint64_t second = table.add(sim::sec(5), 1, outcome.handler(engine));
  EXPECT_NE(first, second);
  table.fail(0, util::make_error(util::ErrorCode::kUnavailable, "done"));
  EXPECT_NE(table.add(sim::sec(5), 0, outcome.handler(engine)), first);
}

TEST_F(ReplyTableFixture, OkAndErrorRepliesResolveAndCancelTheirDeadlines) {
  Outcomes ok, error;
  std::uint64_t ok_id = table.add(sim::sec(5), 0, ok.handler(engine));
  std::uint64_t error_id = table.add(sim::sec(5), 0, error.handler(engine));
  EXPECT_EQ(engine.pending(), 2u);

  EXPECT_TRUE(table.resolve(make_ok_reply(ok_id, util::to_bytes("payload"))));
  EXPECT_TRUE(table.resolve(make_error_reply(
      error_id, util::make_error(util::ErrorCode::kNotFound, "no such job"))));
  EXPECT_EQ(engine.pending(), 0u);
  ASSERT_EQ(ok.results.size(), 1u);
  ASSERT_TRUE(ok.results[0].ok());
  EXPECT_EQ(ok.results[0].value(), util::to_bytes("payload"));
  ASSERT_EQ(error.results.size(), 1u);
  ASSERT_FALSE(error.results[0].ok());
  EXPECT_EQ(error.results[0].error().code, util::ErrorCode::kNotFound);
  EXPECT_EQ(error.results[0].error().message, "no such job");
  // An error reply is an answer, not a failure of the request path.
  EXPECT_EQ(table.failed(), 0u);
  engine.run();
  EXPECT_EQ(ok.results.size() + error.results.size(), 2u);
  EXPECT_EQ(timeouts, 0);
}

TEST_F(ReplyTableFixture, ReplyAfterTheDeadlineIsDropped) {
  Outcomes outcome;
  std::uint64_t id = table.add(sim::sec(5), 0, outcome.handler(engine));
  engine.run();
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_TRUE(table.resolve(make_ok_reply(id, util::to_bytes("late"))));
  EXPECT_EQ(outcome.results.size(), 1u);
  EXPECT_FALSE(outcome.results[0].ok());
}

TEST_F(ReplyTableFixture, UndecodableReplyIsDroppedAndEndsByItsDeadline) {
  Outcomes outcome;
  std::uint64_t id = table.add(sim::sec(5), 0, outcome.handler(engine));

  // An empty message carries no type at all.
  EXPECT_FALSE(table.resolve(util::Bytes{}));
  // {kReply, id, ok = 0} with no error body: 10 bytes decode_error
  // cannot read.
  util::ByteWriter truncated;
  truncated.u8(static_cast<std::uint8_t>(MessageType::kReply));
  truncated.u64(id);
  truncated.u8(0);
  ASSERT_EQ(truncated.bytes().size(), 10u);
  EXPECT_TRUE(table.resolve(truncated.bytes()));
  // A request is not a reply: the caller gets it back.
  EXPECT_FALSE(table.resolve(make_request(RequestKind::kList, id, {})));

  EXPECT_TRUE(outcome.results.empty());
  EXPECT_EQ(engine.pending(), 1u);  // its deadline is still armed
  engine.run();
  ASSERT_EQ(outcome.results.size(), 1u);
  ASSERT_FALSE(outcome.results[0].ok());
  EXPECT_EQ(outcome.results[0].error().code, util::ErrorCode::kTimeout);
  EXPECT_EQ(outcome.times[0], sim::sec(5));
}

TEST_F(ReplyTableFixture, FailSlotFailsOnlyThatSlotInIdOrder) {
  // (id, error text; empty for a reply) of every completion, in the
  // order the handlers ran.
  std::vector<std::pair<std::uint64_t, std::string>> ended;
  std::vector<std::uint64_t> ids(4);
  Outcomes added;
  std::optional<std::uint64_t> added_id;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::size_t slot = i % 2;
    ids[i] = table.add(sim::sec(5), slot,
                       [&, i](util::Result<util::Bytes> result) {
                         ended.emplace_back(
                             ids[i], result.ok() ? "" : result.error().message);
                         // A request added on the failing slot during the
                         // sweep is not part of it.
                         if (!added_id)
                           added_id =
                               table.add(sim::sec(5), 0, added.handler(engine));
                       });
  }
  table.fail(0, util::make_error(util::ErrorCode::kUnavailable, "slot 0 lost"));
  EXPECT_EQ(ended, (std::vector<std::pair<std::uint64_t, std::string>>{
                       {ids[0], "slot 0 lost"}, {ids[2], "slot 0 lost"}}));
  ASSERT_TRUE(added_id.has_value());
  EXPECT_TRUE(added.results.empty());
  // Deadlines left: slot 1's two plus the added request's.
  EXPECT_EQ(engine.pending(), 3u);
  EXPECT_EQ(table.failed(), 2u);

  // Slot 1's requests still resolve by their replies.
  EXPECT_TRUE(table.resolve(make_ok_reply(ids[1], {})));
  ASSERT_EQ(ended.size(), 3u);
  EXPECT_EQ(ended.back(), std::make_pair(ids[1], std::string()));
}

TEST(ReplyTable, DeadlinesOfADestroyedTableAreInert) {
  sim::Engine engine;
  int timeouts = 0;
  int calls = 0;
  auto table = std::make_unique<ReplyTable>(engine, [&timeouts] {
    ++timeouts;
    return std::string("timed out");
  });
  table->add(sim::sec(5), 0, [&calls](util::Result<util::Bytes>) { ++calls; });
  table.reset();
  EXPECT_EQ(engine.run(), 1u);  // the deadline still fires, and does nothing
  EXPECT_EQ(engine.now(), sim::sec(5));
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(timeouts, 0);
}

}  // namespace
}  // namespace unicore::server
