// A small scenario language for scripting fault-injection experiments
// against a CFS cluster — the textual equivalent of the paper's Table II
// test procedures. One command per line, '#' comments:
//
//   cluster groups=1 standbys=3 clients=2 seed=7
//   run 2s
//   mkdir /data
//   create /data/file-1
//   crash-active 0            # kill group 0's active
//   run 10s
//   expect-active 0           # exactly one active again
//   expect-exists /data/file-1
//   expect-converged 0        # every standby matches the active
//   unplug 0 1                # pull member (group 0, index 1)'s cable
//   run 8s
//   replug 0 1
//   restart 0 0               # restart member (0,0)
//   force-lock-release 0      # the paper's Test A injection
//   expect-state 0 "S A S S"  # Table II row
//   print-view 0
//
// Every command is one row of a name-ordered table (RegisterBuiltins):
// usage, help, arity and handler. Execute alone checks arity and that a
// cluster exists, and ends every error with the row's usage. The load,
// gray-fault and membership handlers live in scenario_commands.cpp.
//
// The runner executes commands sequentially, pumping the simulator as
// needed; failed expectations are collected (not thrown) so a scenario
// reports all its violations. Used by examples/scenario_runner and by
// scenario-driven tests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mams::workload {
class LoadEngine;
}  // namespace mams::workload

namespace mams::cluster {

struct ScenarioRunnerOptions {
  bool echo = false;  ///< print each command + outcome to stdout
};

class ScenarioRunner {
 public:
  using Options = ScenarioRunnerOptions;

  explicit ScenarioRunner(Options options = {});
  ~ScenarioRunner();

  /// Runs a whole script; returns OK when every command executed and every
  /// expectation held. Parse errors abort; expectation failures accumulate.
  Status Run(const std::string& script);

  // --- observability ------------------------------------------------------

  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  const std::vector<std::string>& log() const noexcept { return log_; }

  /// The cluster under test (valid after a `cluster` command ran).
  CfsCluster* cluster() noexcept { return cluster_.get(); }

  std::uint64_t ops_ok() const noexcept { return ops_ok_; }
  std::uint64_t ops_failed() const noexcept { return ops_failed_; }

 private:
  using Args = std::vector<std::string>;
  using Handler = std::function<Status(ScenarioRunner&, const Args&)>;

  /// One row of the command table: the one-line synopsis `help` shows and
  /// every error of the command ends with, the prose help, the argument
  /// counts Execute accepts, and whether the command needs a cluster.
  struct Command {
    std::string usage, help;
    std::size_t min_args, max_args;
    bool needs_cluster;
    Handler handler;
  };

  void RegisterBuiltins();
  Status Execute(const std::vector<std::string>& tokens, int line_no);
  /// Closest registered name by edit distance, or "" if none is a likely typo.
  std::string Suggest(const std::string& cmd) const;

  // --- helpers for handlers ----------------------------------------------

  /// Records an expectation failure (collected, not thrown).
  void Fail(std::string what);
  /// Records a log line (and echoes it when echo is on).
  void Note(std::string what);
  /// Pumps the simulator in 50 ms steps until `done` or the budget elapses.
  bool PumpUntil(const std::function<bool()>& done,
                 SimTime budget = 120 * kSecond);

  // Typed targets, parsed whole and bound-checked against the cluster;
  // PoolOf is the pool node co-hosted with an initially configured member.
  Result<GroupId> Group(const std::string& g) const;
  Result<core::MdsServer*> Member(const std::string& g, const std::string& m);
  Result<storage::PoolNode*> PoolOf(const std::string& g, const std::string& m);

  /// Parses "2s" / "500ms" / "250us" into virtual time.
  static Result<SimTime> ParseDuration(const std::string& s);
  static Result<int> ParseInt(const std::string& s);
  static Result<double> ParseDouble(const std::string& s);
  /// Splits "key=value"; returns false when there is no '='.
  static bool KeyValue(const std::string& tok, std::string& key,
                       std::string& value);

  // Command handlers: each runs on a checked argument count and returns a
  // parse error or OK; expectation outcomes go to failures_.
  Status CmdCluster(const Args& args);
  Status CmdRun(const Args& args);
  Status CmdClientOp(const std::string& op, const Args& args);
  Status CmdCrashActive(const Args& args);
  Status CmdCrash(const Args& args, bool restart);
  Status CmdCrashPool(const Args& args, bool restart);
  Status CmdUnplug(const Args& args, bool up);
  Status CmdForceLockRelease(const Args& args);
  Status CmdHelp(const Args& args);
  Status CmdExpectActive(const Args& args);
  Status CmdExpectExists(const Args& args, bool want);
  Status CmdExpectConverged(const Args& args);
  Status CmdExpectState(const Args& args);
  Status CmdExpectCounts(const Args& args);
  Status CmdExpectProbesClean(const Args& args);
  Status CmdPrintView(const Args& args);
  // scenario_commands.cpp
  Status CmdLoad(const Args& args);
  Status CmdSlowDisk(const Args& args);
  Status CmdAsymmetry(const Args& args);
  Status CmdAddStandby(const Args& args);
  Status CmdRemoveStandby(const Args& args);
  Status CmdPromote(const Args& args);
  Status CmdExpectStandbys(const Args& args);
  Status CmdExpectMetric(const Args& args);

  Options options_;
  std::map<std::string, Command> commands_;  ///< name-ordered, for `help`
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CfsCluster> cluster_;
  // References the cluster: declared after it so it dies first, and reset
  // before it on a `cluster` rebuild.
  std::unique_ptr<workload::LoadEngine> load_;
  std::vector<std::string> failures_;
  std::vector<std::string> log_;
  int pending_ops_ = 0;
  std::uint64_t ops_ok_ = 0;
  std::uint64_t ops_failed_ = 0;
};

}  // namespace mams::cluster
