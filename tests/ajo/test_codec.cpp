// Wire-format tests: field-exact round trips for each concrete class
// plus a property sweep over randomly generated job graphs.
#include <gtest/gtest.h>

#include "ajo/codec.h"
#include "ajo/generator.h"
#include "ajo/job.h"
#include "ajo/services.h"
#include "ajo/tasks.h"

namespace unicore::ajo {
namespace {

crypto::DistinguishedName test_user() {
  crypto::DistinguishedName dn;
  dn.country = "DE";
  dn.organization = "Org";
  dn.common_name = "Jane";
  dn.email = "jane@org.de";
  return dn;
}

template <typename T>
T round_trip(const T& action) {
  util::Bytes wire = encode_action(action);
  auto decoded = decode_action(wire);
  EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value()->type(), action.type());
  return std::move(static_cast<T&>(*decoded.value()));
}

TEST(Codec, CompileTaskFields) {
  CompileTask task;
  task.set_id(7);
  task.set_name("compile solver");
  task.source_file = "solver.f90";
  task.object_file = "solver.o";
  task.language = "F90";
  task.compiler_flags = {"-O3", "-g"};
  task.arguments = {"x"};
  task.environment = {{"A", "1"}, {"B", "2"}};
  task.set_resource_request({4, 600, 256, 10, 20});
  task.behavior.nominal_seconds = 3.5;
  task.behavior.stdout_text = "ok";
  task.behavior.output_files = {{"solver.o", 1024}};

  CompileTask back = round_trip(task);
  EXPECT_EQ(back.id(), 7u);
  EXPECT_EQ(back.name(), "compile solver");
  EXPECT_EQ(back.source_file, "solver.f90");
  EXPECT_EQ(back.object_file, "solver.o");
  EXPECT_EQ(back.compiler_flags, task.compiler_flags);
  EXPECT_EQ(back.environment, task.environment);
  EXPECT_EQ(back.resource_request(), task.resource_request());
  EXPECT_EQ(back.behavior, task.behavior);
}

TEST(Codec, LinkTaskFields) {
  LinkTask task;
  task.set_name("link");
  task.object_files = {"a.o", "b.o"};
  task.executable = "app";
  task.libraries = {"mpi", "lapack"};
  LinkTask back = round_trip(task);
  EXPECT_EQ(back.object_files, task.object_files);
  EXPECT_EQ(back.executable, "app");
  EXPECT_EQ(back.libraries, task.libraries);
}

TEST(Codec, UserTaskFields) {
  UserTask task;
  task.executable = "a.out";
  task.arguments = {"-n", "8"};
  UserTask back = round_trip(task);
  EXPECT_EQ(back.executable, "a.out");
  EXPECT_EQ(back.arguments, task.arguments);
}

TEST(Codec, ScriptTaskFields) {
  ExecuteScriptTask task;
  task.script = "#!/bin/sh\necho hi\n";
  task.interpreter = "ksh";
  ExecuteScriptTask back = round_trip(task);
  EXPECT_EQ(back.script, task.script);
  EXPECT_EQ(back.interpreter, "ksh");
}

TEST(Codec, ImportTaskBothSources) {
  ImportTask ws;
  ws.source = ImportTask::Source::kUserWorkstation;
  ws.inline_content = {1, 2, 3, 4};
  ws.uspace_name = "in.dat";
  ImportTask back = round_trip(ws);
  EXPECT_EQ(back.source, ImportTask::Source::kUserWorkstation);
  EXPECT_EQ(back.inline_content, ws.inline_content);
  EXPECT_EQ(back.uspace_name, "in.dat");

  ImportTask xs;
  xs.source = ImportTask::Source::kXspace;
  xs.xspace_source = {"home", "data/in.dat"};
  xs.uspace_name = "in.dat";
  ImportTask back2 = round_trip(xs);
  EXPECT_EQ(back2.source, ImportTask::Source::kXspace);
  EXPECT_EQ(back2.xspace_source, xs.xspace_source);
}

TEST(Codec, ExportAndTransferTasks) {
  ExportTask exp;
  exp.uspace_name = "out.dat";
  exp.destination = {"archive", "runs/42/out.dat"};
  ExportTask back = round_trip(exp);
  EXPECT_EQ(back.destination, exp.destination);

  TransferTask transfer;
  transfer.uspace_name = "mesh.dat";
  transfer.target_job = 17;
  transfer.rename_to = "input.dat";
  TransferTask back2 = round_trip(transfer);
  EXPECT_EQ(back2.target_job, 17u);
  EXPECT_EQ(back2.rename_to, "input.dat");
}

TEST(Codec, Services) {
  ControlService control;
  control.command = ControlService::Command::kHold;
  control.target = 99;
  ControlService back = round_trip(control);
  EXPECT_EQ(back.command, ControlService::Command::kHold);
  EXPECT_EQ(back.target, 99u);

  QueryService query;
  query.target = 5;
  query.detail = QueryService::Detail::kJobGroups;
  QueryService back2 = round_trip(query);
  EXPECT_EQ(back2.target, 5u);
  EXPECT_EQ(back2.detail, QueryService::Detail::kJobGroups);

  round_trip(ListService{});
}

TEST(Codec, NestedJobObject) {
  AbstractJobObject job;
  job.set_name("root");
  job.usite = "FZ-Juelich";
  job.vsite = "T3E-600";
  job.user = test_user();
  job.account_group = "project-a";
  job.site_security_info = "smartcard:1";

  auto task = std::make_unique<UserTask>();
  task->executable = "a.out";
  ActionId t1 = job.add(std::move(task));

  auto sub = std::make_unique<AbstractJobObject>();
  sub->set_name("subgroup");
  sub->usite = "LRZ";
  sub->vsite = "VPP700";
  sub->user = test_user();
  auto sub_task = std::make_unique<ExecuteScriptTask>();
  sub_task->script = "echo sub\n";
  sub->add(std::move(sub_task));
  ActionId s1 = job.add(std::move(sub));

  job.add_dependency(t1, s1, {"data.out"});

  util::Bytes wire = encode_action(job);
  auto decoded = decode_action(wire);
  ASSERT_TRUE(decoded.ok());
  auto& back = static_cast<AbstractJobObject&>(*decoded.value());
  EXPECT_EQ(back.name(), "root");
  EXPECT_EQ(back.usite, "FZ-Juelich");
  EXPECT_EQ(back.user, test_user());
  EXPECT_EQ(back.site_security_info, "smartcard:1");
  ASSERT_EQ(back.children().size(), 2u);
  ASSERT_EQ(back.dependencies().size(), 1u);
  EXPECT_EQ(back.dependencies()[0].files,
            std::vector<std::string>{"data.out"});
  auto* sub_back = back.find_child(s1);
  ASSERT_NE(sub_back, nullptr);
  ASSERT_TRUE(sub_back->is_job());
  EXPECT_EQ(static_cast<AbstractJobObject&>(*sub_back).vsite, "VPP700");
}

TEST(Codec, EncodingIsCanonical) {
  util::Rng rng(5);
  RandomJobOptions options;
  AbstractJobObject job = random_job(rng, options, test_user());
  util::Bytes once = encode_action(job);
  util::Bytes twice = encode_action(job);
  EXPECT_EQ(once, twice);
  auto decoded = decode_action(once);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(encode_action(*decoded.value()), once);
}

TEST(Codec, RejectsUnknownTypeTag) {
  util::Bytes wire{0x7f, 0x01, 0x00};
  EXPECT_FALSE(decode_action(wire).ok());
}

TEST(Codec, RejectsTrailingBytes) {
  util::Bytes wire = encode_action(ListService{});
  wire.push_back(0);
  EXPECT_FALSE(decode_action(wire).ok());
}

TEST(Codec, RejectsTruncation) {
  UserTask task;
  task.executable = "prog";
  util::Bytes wire = encode_action(task);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    util::Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_action(prefix).ok()) << cut;
  }
}

// `depth` job groups, each the only child of the one around it: the
// encoder's bytes for an empty group, spliced so that the 100,000-deep
// case needs no deep object to build or encode.
util::Bytes nested_groups(std::size_t depth) {
  const util::Bytes leaf = encode_action(AbstractJobObject{});
  // An empty group ends with its child count and dependency count, 0 each.
  util::Bytes open(leaf.begin(), leaf.end() - 2);
  open.push_back(1);
  util::Bytes wire;
  for (std::size_t i = 1; i < depth; ++i) util::append(wire, open);
  util::append(wire, leaf);
  wire.insert(wire.end(), depth - 1, std::uint8_t{0});  // n_deps of each
  return wire;
}

TEST(Codec, RefusesNestingBeyondTheBound) {
  // The root is depth 0; the innermost group here sits at the bound.
  auto at_bound = decode_action(nested_groups(util::kMaxNesting + 1));
  ASSERT_TRUE(at_bound.ok()) << at_bound.error().to_string();
  EXPECT_EQ(encode_action(*at_bound.value()),
            nested_groups(util::kMaxNesting + 1));
  EXPECT_FALSE(decode_action(nested_groups(util::kMaxNesting + 2)).ok());
  // Deep enough to overflow the stack of an unbounded recursive decoder.
  util::Bytes deep = nested_groups(100'000);
  EXPECT_GT(deep.size(), 1'000'000u);
  auto decoded = decode_action(deep);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("nested too deeply"),
            std::string::npos)
      << decoded.error().message;
}

// Property: random job graphs survive encode -> decode -> encode
// byte-identically, stay valid, and preserve structural measures.
class RandomGraphRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphRoundTrip, ByteExactAndValid) {
  util::Rng rng(GetParam());
  RandomJobOptions options;
  options.tasks_per_group = 5;
  options.max_depth = 3;
  AbstractJobObject job = random_job(rng, options, test_user());
  ASSERT_TRUE(job.validate().ok());

  util::Bytes wire = encode_action(job);
  auto decoded = decode_action(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  auto& back = static_cast<AbstractJobObject&>(*decoded.value());
  EXPECT_EQ(encode_action(back), wire);
  EXPECT_TRUE(back.validate().ok());
  EXPECT_EQ(back.total_actions(), job.total_actions());
  EXPECT_EQ(back.depth(), job.depth());
  EXPECT_EQ(back.dependencies().size(), job.dependencies().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Codec, SignedAjoRoundTripAndVerification) {
  util::Rng rng(11);
  crypto::DistinguishedName ca_dn{"DE", "CA", "", "Root", ""};
  crypto::CertificateAuthority ca(ca_dn, rng, 0, 1'000'000);
  crypto::Credential user =
      ca.issue_credential(test_user(), rng, 0, 1'000'000,
                          crypto::kUsageClientAuth);

  RandomJobOptions options;
  AbstractJobObject job = random_job(rng, options, test_user());
  SignedAjo signed_ajo = sign_ajo(job, user);
  EXPECT_TRUE(verify_ajo_signature(signed_ajo));

  auto decoded = SignedAjo::decode(signed_ajo.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(verify_ajo_signature(decoded.value()));
  EXPECT_EQ(encode_action(decoded.value().job), encode_action(job));

  // Any structural tampering breaks the signature.
  decoded.value().job.account_group = "stolen";
  EXPECT_FALSE(verify_ajo_signature(decoded.value()));
}

}  // namespace
}  // namespace unicore::ajo
