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
// Every command is registered once, in RegisterBuiltins, in a name-ordered
// table (name -> usage + help + handler): `help` lists the table and an
// unknown command suggests its nearest neighbour. The fault, membership
// and load commands (`load`, `slow-disk`, `asymmetry`, `add-standby`,
// `remove-standby`, `promote`, `expect-standbys`, `expect-metric`) are
// implemented in scenario_commands.cpp.
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
  sim::Simulator* simulator() noexcept { return sim_.get(); }
  net::Network* network() noexcept { return net_.get(); }

  std::uint64_t ops_ok() const noexcept { return ops_ok_; }
  std::uint64_t ops_failed() const noexcept { return ops_failed_; }

 private:
  using Handler = std::function<Status(const std::vector<std::string>& args)>;

  /// One entry in the command table. `usage` is the one-line synopsis
  /// shown on arity errors and by `help`; `help` is the prose description.
  struct Command {
    std::string usage;
    std::string help;
    Handler handler;
  };

  void RegisterBuiltins();
  Status Execute(const std::vector<std::string>& tokens, int line_no);
  /// Closest registered command by edit distance, or "" when nothing is
  /// close enough to be a plausible typo.
  std::string Suggest(const std::string& cmd) const;

  // --- helpers for handlers ----------------------------------------------

  /// True when a `cluster` command has run; otherwise records a failure
  /// attributed to `cmd` and returns false.
  bool RequireCluster(const char* cmd);
  /// Records an expectation failure (collected, not thrown).
  void Fail(std::string what);
  /// Records a log line (and echoes it when echo is on).
  void Note(std::string what);
  /// Pumps the simulator in 50 ms steps until `done` or the budget elapses.
  bool PumpUntil(const std::function<bool()>& done,
                 SimTime budget = 120 * kSecond);
  /// The pool node co-hosted with member (group, member), or nullptr.
  storage::PoolNode* PoolOf(int group, int member);

  /// Parses "2s" / "500ms" / "250us" into virtual time.
  static Result<SimTime> ParseDuration(const std::string& s);
  static Result<int> ParseInt(const std::string& s);
  static Result<double> ParseDouble(const std::string& s);
  /// Splits "key=value"; returns false when there is no '='.
  static bool KeyValue(const std::string& tok, std::string& key,
                       std::string& value);

  // Command implementations (each returns a parse/shape error or OK;
  // expectation outcomes go to failures_).
  Status CmdCluster(const std::vector<std::string>& args);
  Status CmdRun(const std::vector<std::string>& args);
  Status CmdClientOp(const std::string& op,
                     const std::vector<std::string>& args);
  Status CmdCrashActive(const std::vector<std::string>& args);
  Status CmdCrash(const std::vector<std::string>& args);
  Status CmdRestart(const std::vector<std::string>& args);
  Status CmdCrashPool(const std::vector<std::string>& args, bool restart);
  Status CmdUnplug(const std::vector<std::string>& args, bool up);
  Status CmdForceLockRelease(const std::vector<std::string>& args);
  Status CmdHelp(const std::vector<std::string>& args);
  Status CmdExpectActive(const std::vector<std::string>& args);
  Status CmdExpectExists(const std::vector<std::string>& args, bool want);
  Status CmdExpectConverged(const std::vector<std::string>& args);
  Status CmdExpectState(const std::vector<std::string>& args);
  Status CmdExpectCounts(const std::vector<std::string>& args);
  Status CmdExpectProbesClean(const std::vector<std::string>& args);
  Status CmdPrintView(const std::vector<std::string>& args);
  // scenario_commands.cpp
  Status CmdLoad(const std::vector<std::string>& args);
  Status CmdSlowDisk(const std::vector<std::string>& args);
  Status CmdAsymmetry(const std::vector<std::string>& args);
  Status CmdAddStandby(const std::vector<std::string>& args);
  Status CmdRemoveStandby(const std::vector<std::string>& args);
  Status CmdPromote(const std::vector<std::string>& args);
  Status CmdExpectStandbys(const std::vector<std::string>& args);
  Status CmdExpectMetric(const std::vector<std::string>& args);

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
