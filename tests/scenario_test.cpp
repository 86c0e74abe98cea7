// Tests for the scenario DSL runner — both the language itself (parsing,
// errors, expectations) and, through it, another declarative layer of
// protocol regression scenarios.
#include <gtest/gtest.h>

#include "cluster/scenario.hpp"

namespace mams::cluster {
namespace {

TEST(ScenarioParseTest, UnknownCommandIsError) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\nfrobnicate /x\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown command"), std::string::npos);
}

TEST(ScenarioParseTest, BadDurationIsError) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\nrun banana\n");
  ASSERT_FALSE(s.ok());
}

TEST(ScenarioParseTest, CommandsBeforeClusterFailGracefully) {
  ScenarioRunner runner;
  Status s = runner.Run("create /x\n");
  ASSERT_FALSE(s.ok());  // expectation failure: no cluster
  EXPECT_FALSE(runner.failures().empty());
}

TEST(ScenarioParseTest, CommentsAndBlankLinesIgnored) {
  ScenarioRunner runner;
  EXPECT_TRUE(runner
                  .Run("# a comment\n\n"
                       "cluster groups=1 standbys=1 seed=3\n"
                       "run 100ms   # trailing comment\n")
                  .ok());
}

TEST(ScenarioTest, BasicOpsAndExpectations) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=2 seed=5
run 500ms
mkdir /d
create /d/f
stat /d/f
expect-exists /d/f
expect-missing /d/other
expect-active 0
expect-ops-ok
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, FailedExpectationIsReported) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=5
run 500ms
expect-exists /nope
)");
  ASSERT_FALSE(s.ok());
  ASSERT_EQ(runner.failures().size(), 1u);
  EXPECT_NE(runner.failures()[0].find("/nope"), std::string::npos);
}

TEST(ScenarioTest, CrashAndFailoverScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=11
run 500ms
create /before
crash-active 0
run 10s
expect-active 0
expect-exists /before
create /after
expect-exists /after
expect-converged 0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, TestAForceLockRelease) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=13
run 1s
expect-state 0 "A S S S"
force-lock-release 0
run 8s
expect-active 0
# the deposed active re-registers as a standby; which standby won the
# election is seed-dependent, so assert counts rather than the exact row.
expect-counts 0 A=1 S=3 J=0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioTest, UnplugReplugScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=3 seed=17
run 1s
create /x
unplug 0 0
run 10s
expect-active 0
replug 0 0
run 30s
expect-converged 0
expect-exists /x
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScenarioRegistryTest, UnknownCommandSuggestsNearestName) {
  ScenarioRunner runner;
  Status s = runner.Run("cluster groups=1 standbys=1\ncraete /x\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("did you mean"), std::string::npos);
  EXPECT_NE(s.message().find("create"), std::string::npos);
}

TEST(ScenarioRegistryTest, HelpListsCommandsAndExplainsOne) {
  ScenarioRunner runner;
  EXPECT_TRUE(runner.Run("help\n").ok());
  EXPECT_TRUE(runner.Run("help crash-active\n").ok());
  // The elastic commands are builtins: no registration step is needed.
  EXPECT_TRUE(runner.Run("help add-standby\n").ok());
  EXPECT_TRUE(runner.Run("help expect-metric\n").ok());
  // help for an unknown command is an error, with the same suggestion.
  Status s = runner.Run("help crash-actve\n");
  ASSERT_FALSE(s.ok());
}

// The usage line `help <name>` prints for one command.
std::string HelpUsage(const std::string& name) {
  ScenarioRunner runner;
  const Status s = runner.Run("help " + name + "\n");
  return s.ok() && !runner.log().empty() ? runner.log().front() : "";
}

TEST(ScenarioValidationTest, BadTargetsAndSizesAreUsageErrors) {
  // On a one-group, three-member cluster every command that takes a group
  // or member, given one out of range, negative or not a whole integer,
  // stops the script with its usage instead of indexing past the cluster.
  // So do cluster sizes no cluster can have.
  const char* lines[] = {
      "crash 3 0",          "crash 0 -1",
      "crash 0 2x",         "restart 0 9",
      "crash-active 5",     "crash-pool 1 0",
      "restart-pool 0 -1",  "unplug 0 7",
      "replug -1 0",        "force-lock-release 1",
      "expect-active 5",    "expect-converged 5",
      "expect-state 2 A S", "expect-counts -1 A=1",
      "print-view 1",       "slow-disk 0 3 5",
      "asymmetry 2 0 out",  "add-standby 4",
      "remove-standby -2",  "promote 5",
      "expect-standbys 5 1", "load open hot_group=3",
      "cluster groups=0",   "cluster groups=-1",
      "cluster standbys=-1", "cluster juniors=-1",
      "cluster clients=0",
  };
  for (const std::string line : lines) {
    const std::string name = line.substr(0, line.find(' '));
    const std::string usage = HelpUsage(name);
    ASSERT_FALSE(usage.empty()) << name;
    ScenarioRunner runner;
    const Status s =
        runner.Run("cluster groups=1 standbys=2 seed=3\n" + line + "\n");
    ASSERT_FALSE(s.ok()) << line;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << line << ": " << s.ToString();
    EXPECT_NE(s.message().find("; usage: " + usage), std::string::npos)
        << line << ": " << s.ToString();
    EXPECT_TRUE(runner.failures().empty()) << line;
  }
}

TEST(ScenarioValidationTest, ArityErrorsPrintTheHelpUsage) {
  ScenarioRunner lister;
  ASSERT_TRUE(lister.Run("help\n").ok());
  // log(): "commands:", then one "  <usage>" line per command.
  ASSERT_GT(lister.log().size(), 30u);
  for (std::size_t i = 1; i < lister.log().size(); ++i) {
    const std::string usage = lister.log()[i].substr(2);
    const std::string name = usage.substr(0, usage.find(' '));
    EXPECT_EQ(HelpUsage(name), usage);
    // No command takes both zero and twelve arguments (cluster has six
    // options, expect-state and load need at least one argument).
    int arity_errors = 0;
    for (const int argc : {0, 12}) {
      std::string line = name;
      for (int a = 0; a < argc; ++a) line += " x";
      ScenarioRunner runner;
      const Status s = runner.Run(line + "\n");
      if (s.code() != StatusCode::kInvalidArgument) continue;
      ++arity_errors;
      EXPECT_EQ(s.message(), "line 1: " + name + ": got " +
                                 std::to_string(argc) +
                                 " argument(s); usage: " + usage);
    }
    EXPECT_GE(arity_errors, 1) << name;
  }
}

TEST(ScenarioElasticPackTest, ExpectMetricReadsRegistryValues) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=23
run 500ms
create /m/f
expect-metric mds.ops_served >= 1
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
  // An unsatisfied comparison is an expectation failure, not a parse error.
  ScenarioRunner runner2;
  s = runner2.Run(R"(
cluster groups=1 standbys=1 seed=23
run 500ms
expect-metric mds.ops_served >= 1000000
)");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(runner2.failures().empty());
}

TEST(ScenarioElasticPackTest, ExpectStandbysWaitsForMembership) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=29
run 1s
expect-standbys 0 1 1
add-standby 0
expect-standbys 0 2
expect-converged 0
remove-standby 0
expect-standbys 0 1 1
)");
  EXPECT_TRUE(s.ok()) << s.ToString();

  // Promoting when no junior exists is an expectation failure, reported
  // through the normal failure channel rather than aborting the script.
  ScenarioRunner runner2;
  s = runner2.Run(R"(
cluster groups=1 standbys=1 seed=31
run 500ms
promote 0
)");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(runner2.failures().empty());
}

TEST(ScenarioElasticPackTest, HotGroupSkewLeavesTheColdGroupAMinority) {
  // hot_group classifies each load directory by the group holding its
  // children, so weight 8:1 puts roughly a ninth of the ops on group 1.
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=2 standbys=1 clients=2 seed=37
run 1s
load open rate=200 create=0.2 hot_group=0 hot_weight=8 ops=4
run 5s
load stop
run 1s
)");
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::uint64_t served[2] = {0, 0};
  for (GroupId g = 0; g < 2; ++g) {
    for (const auto& m : runner.cluster()->Members(g)) {
      served[g] += m.server->counters().ops_served;
    }
  }
  EXPECT_GT(served[1], 0u);
  EXPECT_LT(4 * served[1], served[0] + served[1]) << served[0] << " vs "
                                                   << served[1];
}

TEST(ScenarioTest, AddBackupScenario) {
  ScenarioRunner runner;
  Status s = runner.Run(R"(
cluster groups=1 standbys=1 seed=19
run 1s
create /grow
add-standby 0
run 30s
expect-state 0 "A S S"
expect-converged 0
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace mams::cluster
