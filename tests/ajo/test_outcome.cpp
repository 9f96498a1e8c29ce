#include "ajo/outcome.h"

#include <gtest/gtest.h>

namespace unicore::ajo {
namespace {

Outcome sample_tree() {
  Outcome root;
  root.action = 1;
  root.type = ActionType::kAbstractJobObject;
  root.name = "root";
  root.status = ActionStatus::kSuccessful;
  root.submitted_at = sim::sec(1);
  root.finished_at = sim::sec(100);

  Outcome compile;
  compile.action = 2;
  compile.type = ActionType::kCompileTask;
  compile.name = "compile";
  compile.status = ActionStatus::kSuccessful;
  compile.detail = ExecuteOutcome{0, "done\n", ""};

  Outcome import;
  import.action = 3;
  import.type = ActionType::kImportTask;
  import.name = "import";
  import.status = ActionStatus::kNotSuccessful;
  import.message = "quota exceeded";
  import.detail = FileOutcome{{"in.dat"}, 12345};

  Outcome sub;
  sub.action = 4;
  sub.type = ActionType::kAbstractJobObject;
  sub.name = "sub";
  sub.status = ActionStatus::kNeverRun;
  Outcome query;
  query.action = 5;
  query.type = ActionType::kQueryService;
  query.status = ActionStatus::kSuccessful;
  query.detail = ServiceOutcome{"3 jobs"};
  sub.children.push_back(std::move(query));

  root.children = {std::move(compile), std::move(import), std::move(sub)};
  return root;
}

TEST(Outcome, TerminalClassification) {
  EXPECT_TRUE(is_terminal(ActionStatus::kSuccessful));
  EXPECT_TRUE(is_terminal(ActionStatus::kNotSuccessful));
  EXPECT_TRUE(is_terminal(ActionStatus::kAborted));
  EXPECT_TRUE(is_terminal(ActionStatus::kNeverRun));
  EXPECT_FALSE(is_terminal(ActionStatus::kPending));
  EXPECT_FALSE(is_terminal(ActionStatus::kQueued));
  EXPECT_FALSE(is_terminal(ActionStatus::kRunning));
  EXPECT_FALSE(is_terminal(ActionStatus::kConsigned));
  EXPECT_FALSE(is_terminal(ActionStatus::kHeld));
}

TEST(Outcome, FindLocatesNodes) {
  Outcome tree = sample_tree();
  ASSERT_NE(tree.find(5), nullptr);
  EXPECT_EQ(tree.find(5)->type, ActionType::kQueryService);
  EXPECT_EQ(tree.find(1), &tree);
  EXPECT_EQ(tree.find(42), nullptr);
}

TEST(Outcome, CountIfWalksTree) {
  Outcome tree = sample_tree();
  EXPECT_EQ(tree.count_if(is_terminal), 5u);
  EXPECT_EQ(tree.count_if(+[](ActionStatus s) {
              return s == ActionStatus::kSuccessful;
            }),
            3u);
}

TEST(Outcome, AllTerminal) {
  Outcome tree = sample_tree();
  EXPECT_TRUE(tree.all_terminal());
  tree.children[0].status = ActionStatus::kRunning;
  EXPECT_FALSE(tree.all_terminal());
}

TEST(Outcome, EncodeDecodeRoundTrip) {
  Outcome tree = sample_tree();
  util::ByteWriter w;
  tree.encode(w);
  util::ByteReader r(w.bytes());
  Outcome back = Outcome::decode(r);
  ASSERT_TRUE(r.ok()) << r.finish().to_string();
  EXPECT_EQ(back, tree);
  EXPECT_TRUE(r.done());
}

TEST(Outcome, DecodeRejectsTruncation) {
  Outcome tree = sample_tree();
  util::ByteWriter w;
  tree.encode(w);
  util::Bytes wire = w.take();
  for (std::size_t cut : {std::size_t{1}, std::size_t{10}, std::size_t{20},
                          wire.size() - 1}) {
    util::Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(cut));
    util::ByteReader r(prefix);
    (void)Outcome::decode(r);
    EXPECT_FALSE(r.ok()) << cut;
  }
}

// `depth` outcomes, each the only child of the one around it, spliced
// from the encoder's bytes for a childless outcome.
util::Bytes nested_outcomes(std::size_t depth) {
  util::ByteWriter w;
  Outcome{}.encode(w);
  const util::Bytes leaf = w.take();  // ends with its child count, 0
  util::Bytes open(leaf.begin(), leaf.end() - 1);
  open.push_back(1);
  util::Bytes wire;
  for (std::size_t i = 1; i < depth; ++i) util::append(wire, open);
  util::append(wire, leaf);
  return wire;
}

TEST(Outcome, DecodeRefusesNestingBeyondTheBound) {
  // The root is depth 0; the innermost outcome here sits at the bound.
  util::Bytes at_bound = nested_outcomes(util::kMaxNesting + 1);
  util::ByteReader fits(at_bound);
  (void)Outcome::decode(fits);
  EXPECT_TRUE(fits.ok());
  EXPECT_TRUE(fits.done());
  util::Bytes over = nested_outcomes(util::kMaxNesting + 2);
  util::ByteReader too_deep(over);
  (void)Outcome::decode(too_deep);
  EXPECT_FALSE(too_deep.ok());
  // Deep enough to overflow the stack of an unbounded recursive decoder.
  util::Bytes deep = nested_outcomes(100'000);
  util::ByteReader r(deep);
  (void)Outcome::decode(r);
  util::Status decoded = r.finish();
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("nested too deeply"),
            std::string::npos)
      << decoded.error().message;
}

TEST(Outcome, TreeStringShowsStatusPerLine) {
  Outcome tree = sample_tree();
  std::string rendered = tree.to_tree_string();
  EXPECT_NE(rendered.find("root [SUCCESSFUL]"), std::string::npos);
  EXPECT_NE(rendered.find("import [NOT_SUCCESSFUL] — quota exceeded"),
            std::string::npos);
  EXPECT_NE(rendered.find("  compile"), std::string::npos);  // indented
  // Five lines, one per node.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 5);
}

TEST(Outcome, StatusNamesDistinct) {
  std::set<std::string> names;
  for (int s = 0; s <= 8; ++s)
    names.insert(action_status_name(static_cast<ActionStatus>(s)));
  EXPECT_EQ(names.size(), 9u);
}

}  // namespace
}  // namespace unicore::ajo
