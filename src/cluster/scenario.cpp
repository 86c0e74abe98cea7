#include "cluster/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "workload/load_engine.hpp"

namespace mams::cluster {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    tokens.push_back(tok);
  }
  return tokens;
}

/// Classic dynamic-programming edit distance; command names are short, so
/// the quadratic table is a handful of bytes.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

}  // namespace

Result<SimTime> ScenarioRunner::ParseDuration(const std::string& s) {
  std::size_t pos = 0;
  double value = 0;
  try {
    value = std::stod(s, &pos);
  } catch (...) {
    return Status::InvalidArgument("bad duration: " + s);
  }
  const std::string unit = s.substr(pos);
  if (unit == "s") return static_cast<SimTime>(value * kSecond);
  if (unit == "ms") return static_cast<SimTime>(value * kMillisecond);
  if (unit == "us") return static_cast<SimTime>(value * kMicrosecond);
  return Status::InvalidArgument("bad duration unit: " + s);
}

Result<int> ScenarioRunner::ParseInt(const std::string& s) {
  try {
    return std::stoi(s);
  } catch (...) {
    return Status::InvalidArgument("bad integer: " + s);
  }
}

Result<double> ScenarioRunner::ParseDouble(const std::string& s) {
  try {
    return std::stod(s);
  } catch (...) {
    return Status::InvalidArgument("bad number: " + s);
  }
}

bool ScenarioRunner::KeyValue(const std::string& tok, std::string& key,
                              std::string& value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  key = tok.substr(0, eq);
  value = tok.substr(eq + 1);
  return true;
}

ScenarioRunner::ScenarioRunner(Options options) : options_(options) {
  RegisterBuiltins();
}

ScenarioRunner::~ScenarioRunner() = default;

Status ScenarioRunner::Run(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    Status s = Execute(tokens, line_no);
    if (!s.ok()) {
      return Status(s.code(), "line " + std::to_string(line_no) + ": " +
                                  s.message());
    }
  }
  if (!failures_.empty()) {
    return Status::FailedPrecondition(
        std::to_string(failures_.size()) + " expectation(s) failed; first: " +
        failures_.front());
  }
  return Status::Ok();
}

Status ScenarioRunner::Execute(const std::vector<std::string>& tokens,
                               int line_no) {
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (options_.echo) {
    std::string joined = cmd;
    for (const auto& a : args) joined += " " + a;
    std::printf("[scenario:%d] %s\n", line_no, joined.c_str());
  }
  const auto it = commands_.find(cmd);
  if (it == commands_.end()) {
    std::string msg = "unknown command: " + cmd;
    const std::string near = Suggest(cmd);
    if (!near.empty()) msg += " (did you mean `" + near + "`?)";
    msg += "; `help` lists all commands";
    return Status::InvalidArgument(msg);
  }
  return it->second.handler(args);
}

std::string ScenarioRunner::Suggest(const std::string& cmd) const {
  std::string best;
  std::size_t best_dist = cmd.size();  // a full rewrite is not a typo
  for (const auto& [name, command] : commands_) {
    const std::size_t d = EditDistance(cmd, name);
    if (d < best_dist) {
      best_dist = d;
      best = name;
    }
  }
  // Only suggest plausible slips: at most 2 edits, or 3 on long names.
  const std::size_t cutoff = cmd.size() >= 10 ? 3 : 2;
  return best_dist <= cutoff ? best : std::string();
}

void ScenarioRunner::RegisterBuiltins() {
  auto add = [this](const char* name, const std::string& usage,
                    const char* help, Handler handler) {
    commands_.emplace(name, Command{usage, help, std::move(handler)});
  };

  add("cluster",
      "cluster [groups=N] [standbys=N] [juniors=N] [clients=N] [seed=N] "
      "[standby_reads=0|1]",
      "Builds and boots the cluster under test. Must run before any other "
      "command. standby_reads=1 enables bounded-staleness standby reads "
      "with round-robin client routing.",
      [this](const std::vector<std::string>& a) { return CmdCluster(a); });
  add("run", "run <duration>",
      "Advances virtual time, e.g. `run 2s`, `run 500ms`.",
      [this](const std::vector<std::string>& a) { return CmdRun(a); });
  for (const char* op : {"create", "mkdir", "delete", "stat"}) {
    add(op, std::string(op) + " <path>",
        "Issues the client op through client 0 and waits for the reply. "
        "Failures are logged and counted, not fatal (see expect-ops-ok).",
        [this, op = std::string(op)](const std::vector<std::string>& a) {
          return CmdClientOp(op, a);
        });
  }
  add("crash-active", "crash-active <group>",
      "Kills the group's current active (the paper's failover trigger).",
      [this](const std::vector<std::string>& a) { return CmdCrashActive(a); });
  add("crash", "crash <group> <member>",
      "Kills one specific member by group index.",
      [this](const std::vector<std::string>& a) { return CmdCrash(a); });
  add("restart", "restart <group> <member>",
      "Restarts a crashed member; it rejoins as a junior and is renewed.",
      [this](const std::vector<std::string>& a) { return CmdRestart(a); });
  add("crash-pool", "crash-pool <group> <member>",
      "Kills the pool (SSP) node co-hosted with member (group, member).",
      [this](const std::vector<std::string>& a) {
        return CmdCrashPool(a, /*restart=*/false);
      });
  add("restart-pool", "restart-pool <group> <member>",
      "Restarts the co-hosted pool node killed by crash-pool.",
      [this](const std::vector<std::string>& a) {
        return CmdCrashPool(a, /*restart=*/true);
      });
  add("unplug", "unplug <group> <member>",
      "Pulls the member's network cable (paper Test B); in-flight messages "
      "are lost.",
      [this](const std::vector<std::string>& a) {
        return CmdUnplug(a, /*up=*/false);
      });
  add("replug", "replug <group> <member>",
      "Plugs the cable back in.",
      [this](const std::vector<std::string>& a) {
        return CmdUnplug(a, /*up=*/true);
      });
  add("force-lock-release", "force-lock-release <group>",
      "Admin-releases the group lock (the paper's Test A injection).",
      [this](const std::vector<std::string>& a) {
        return CmdForceLockRelease(a);
      });
  add("add-backup", "add-backup <group>",
      "Grows the group by one standby (joins as junior, renewed by the "
      "active). Alias of add-standby.",
      [this](const std::vector<std::string>& a) { return CmdAddStandby(a); });
  add("help", "help [command]",
      "Lists every registered command, or one command's usage and help.",
      [this](const std::vector<std::string>& a) { return CmdHelp(a); });
  add("expect-active", "expect-active <group>",
      "Waits until the coordination view names an alive, serving active.",
      [this](const std::vector<std::string>& a) { return CmdExpectActive(a); });
  add("expect-exists", "expect-exists <path>",
      "Asserts the path exists on its owner group's active.",
      [this](const std::vector<std::string>& a) {
        return CmdExpectExists(a, /*want=*/true);
      });
  add("expect-missing", "expect-missing <path>",
      "Asserts the path does not exist on its owner group's active.",
      [this](const std::vector<std::string>& a) {
        return CmdExpectExists(a, /*want=*/false);
      });
  add("expect-converged", "expect-converged <group>",
      "Waits until every alive standby's namespace matches the active's.",
      [this](const std::vector<std::string>& a) {
        return CmdExpectConverged(a);
      });
  add("expect-state", "expect-state <group> <A|S|J|- ...>",
      "Waits until the view row equals the given letters (Table II rows).",
      [this](const std::vector<std::string>& a) { return CmdExpectState(a); });
  add("expect-counts", "expect-counts <group> [A=n] [S=n] [J=n]",
      "Waits until the view holds the given per-state counts.",
      [this](const std::vector<std::string>& a) { return CmdExpectCounts(a); });
  add("expect-ops-ok", "expect-ops-ok",
      "Asserts no client op issued so far failed.",
      [this](const std::vector<std::string>&) -> Status {
        if (ops_failed_ > 0) {
          Fail("expect-ops-ok: " + std::to_string(ops_failed_) +
               " client op(s) failed");
        }
        return Status::Ok();
      });
  add("expect-probes-clean", "expect-probes-clean",
      "Evaluates every safety probe now and asserts no invariant violation "
      "has been recorded in the whole run.",
      [this](const std::vector<std::string>& a) {
        return CmdExpectProbesClean(a);
      });
  add("print-view", "print-view <group>",
      "Prints the group's coordination view row, lock and fence.",
      [this](const std::vector<std::string>& a) { return CmdPrintView(a); });
  add("load",
      "load open [rate=R] [flash_mult=M] [flash_start=D] [flash_len=D] "
      "[create=F] [think=D] [dirs=N] [ops=N] [hot_group=G] [hot_weight=W] "
      "| load stop",
      "Runs open-loop session load against the cluster; flash_* shapes a "
      "flash crowd, hot_group skews arrivals onto one group.",
      [this](const std::vector<std::string>& a) { return CmdLoad(a); });
  add("slow-disk", "slow-disk <group> <member> <factor|off>",
      "Gray failure: multiplies the co-hosted pool node's disk time.",
      [this](const std::vector<std::string>& a) { return CmdSlowDisk(a); });
  add("asymmetry", "asymmetry <group> <member> in|out|off",
      "Directional link failure: kill only the member's receive half "
      "(in), its transmit half (out), or restore both (off).",
      [this](const std::vector<std::string>& a) { return CmdAsymmetry(a); });
  add("add-standby", "add-standby <group>",
      "Grows the group by one standby via the membership API.",
      [this](const std::vector<std::string>& a) { return CmdAddStandby(a); });
  add("remove-standby", "remove-standby <group>",
      "Retires one drained standby via the membership API.",
      [this](const std::vector<std::string>& a) {
        return CmdRemoveStandby(a);
      });
  add("promote", "promote <group>",
      "Nudges the active to renew a junior into a standby now.",
      [this](const std::vector<std::string>& a) { return CmdPromote(a); });
  add("expect-standbys", "expect-standbys <group> <min> [max]",
      "Waits until the group's alive standby count is within [min, max].",
      [this](const std::vector<std::string>& a) {
        return CmdExpectStandbys(a);
      });
  add("expect-metric", "expect-metric <name> <op> <value>",
      "Asserts on a counter, gauge, or histogram stat "
      "(name.p50/.p90/.p99/.mean/.count); ops: == >= <= > <.",
      [this](const std::vector<std::string>& a) { return CmdExpectMetric(a); });
}

bool ScenarioRunner::RequireCluster(const char* cmd) {
  if (cluster_) return true;
  Fail(std::string(cmd) + ": no cluster (missing `cluster` command?)");
  return false;
}

void ScenarioRunner::Fail(std::string what) {
  if (options_.echo) std::printf("  FAIL: %s\n", what.c_str());
  failures_.push_back(std::move(what));
}

void ScenarioRunner::Note(std::string what) {
  if (options_.echo) std::printf("  %s\n", what.c_str());
  log_.push_back(std::move(what));
}

bool ScenarioRunner::PumpUntil(const std::function<bool()>& done,
                               SimTime budget) {
  const SimTime deadline = sim_->Now() + budget;
  while (!done() && sim_->Now() < deadline) {
    sim_->RunUntil(sim_->Now() + 50 * kMillisecond);
  }
  return done();
}

storage::PoolNode* ScenarioRunner::PoolOf(int group, int member) {
  // Pool nodes are allocated one per initially-configured metadata node,
  // co-hosted in construction order: group-major, member-minor.
  const auto& cfg = cluster_->config();
  const int members = 1 + cfg.standbys_per_group + cfg.juniors_per_group;
  if (group < 0 || group >= static_cast<int>(cfg.groups) || member < 0 ||
      member >= members) {
    return nullptr;
  }
  return &cluster_->pool_node(group * members + member);
}

Status ScenarioRunner::CmdCluster(const std::vector<std::string>& args) {
  CfsConfig cfg;
  cfg.clients = 2;
  cfg.data_servers = 1;
  std::uint64_t seed = 1;
  for (const auto& tok : args) {
    std::string key, value;
    if (!KeyValue(tok, key, value)) {
      return Status::InvalidArgument("expected key=value, got " + tok);
    }
    auto num = ParseInt(value);
    if (!num.ok()) return num.status();
    if (key == "groups") {
      cfg.groups = static_cast<GroupId>(num.value());
    } else if (key == "standbys") {
      cfg.standbys_per_group = num.value();
    } else if (key == "juniors") {
      cfg.juniors_per_group = num.value();
    } else if (key == "clients") {
      cfg.clients = num.value();
    } else if (key == "seed") {
      seed = static_cast<std::uint64_t>(num.value());
    } else if (key == "standby_reads") {
      if (num.value() != 0) {
        cfg.mds.standby_reads.serve_reads = true;
        cfg.client.read_routing = ReadRouting::kRoundRobinStandby;
      }
    } else {
      return Status::InvalidArgument("unknown cluster option: " + key);
    }
  }
  // Re-running `cluster` rebuilds the world: drop the load engine first,
  // it references the old cluster.
  load_.reset();
  cluster_.reset();
  net_.reset();
  sim_ = std::make_unique<sim::Simulator>(seed);
  net_ = std::make_unique<net::Network>(*sim_);
  cluster_ = std::make_unique<CfsCluster>(*net_, cfg);
  cluster_->Start();
  sim_->RunUntil(sim_->Now() + kSecond);
  Note("cluster up: " + std::to_string(cfg.groups) + " group(s), " +
       std::to_string(cfg.standbys_per_group) + " standby(s) each");
  return Status::Ok();
}

Status ScenarioRunner::CmdRun(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("run <duration>");
  if (!RequireCluster("run")) return Status::Ok();
  auto dt = ParseDuration(args[0]);
  if (!dt.ok()) return dt.status();
  sim_->RunUntil(sim_->Now() + dt.value());
  return Status::Ok();
}

Status ScenarioRunner::CmdClientOp(const std::string& op,
                                   const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument(op + " <path>");
  if (!RequireCluster(op.c_str())) return Status::Ok();
  const std::string path = args[0];
  ++pending_ops_;
  auto done = [this, op, path](Status s) {
    --pending_ops_;
    if (s.ok()) {
      ++ops_ok_;
    } else {
      ++ops_failed_;
      Note(op + " " + path + " -> " + s.ToString());
    }
  };
  auto& client = cluster_->client(0);
  if (op == "create") {
    client.Create(path, done);
  } else if (op == "mkdir") {
    client.Mkdir(path, done);
  } else if (op == "delete") {
    client.Delete(path, done);
  } else {  // stat
    client.GetFileInfo(path, [done](Result<fsns::FileInfo> r) {
      done(r.ok() ? Status::Ok() : r.status());
    });
  }
  // Client ops are synchronous at scenario level: pump until answered.
  if (!PumpUntil([this] { return pending_ops_ == 0; })) {
    Fail(op + " " + path + ": no reply within budget");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdCrashActive(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("crash-active <group>");
  if (!RequireCluster("crash-active")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  core::MdsServer* active = cluster_->FindActive(
      static_cast<GroupId>(g.value()));
  if (active == nullptr) {
    Fail("crash-active: group " + args[0] + " has no active");
    return Status::Ok();
  }
  Note("crashing " + active->name());
  active->Crash();
  return Status::Ok();
}

Status ScenarioRunner::CmdCrash(const std::vector<std::string>& args) {
  if (args.size() != 2) return Status::InvalidArgument("crash <group> <member>");
  if (!RequireCluster("crash")) return Status::Ok();
  auto g = ParseInt(args[0]);
  auto m = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!m.ok()) return m.status();
  cluster_->mds(static_cast<GroupId>(g.value()), m.value()).Crash();
  return Status::Ok();
}

Status ScenarioRunner::CmdRestart(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Status::InvalidArgument("restart <group> <member>");
  }
  if (!RequireCluster("restart")) return Status::Ok();
  auto g = ParseInt(args[0]);
  auto m = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!m.ok()) return m.status();
  cluster_->mds(static_cast<GroupId>(g.value()), m.value()).Restart();
  return Status::Ok();
}

Status ScenarioRunner::CmdCrashPool(const std::vector<std::string>& args,
                                    bool restart) {
  const char* name = restart ? "restart-pool" : "crash-pool";
  if (args.size() != 2) {
    return Status::InvalidArgument(std::string(name) + " <group> <member>");
  }
  if (!RequireCluster(name)) return Status::Ok();
  auto g = ParseInt(args[0]);
  auto m = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!m.ok()) return m.status();
  storage::PoolNode* pool = PoolOf(g.value(), m.value());
  if (pool == nullptr) {
    return Status::InvalidArgument(std::string(name) + ": no such pool node");
  }
  if (restart) {
    pool->Restart();
    Note("restarted " + pool->name());
  } else {
    pool->Crash();
    Note("crashed " + pool->name());
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdUnplug(const std::vector<std::string>& args,
                                 bool up) {
  const char* name = up ? "replug" : "unplug";
  if (args.size() != 2) {
    return Status::InvalidArgument(std::string(name) + " <group> <member>");
  }
  if (!RequireCluster(name)) return Status::Ok();
  auto g = ParseInt(args[0]);
  auto m = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!m.ok()) return m.status();
  auto& mds = cluster_->mds(static_cast<GroupId>(g.value()), m.value());
  cluster_->network().SetLinkUp(mds.id(), up);
  Note(std::string(name) + " " + mds.name());
  return Status::Ok();
}

Status ScenarioRunner::CmdForceLockRelease(
    const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Status::InvalidArgument("force-lock-release <group>");
  }
  if (!RequireCluster("force-lock-release")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  cluster_->coord().frontend().AdminForceReleaseLock(
      static_cast<GroupId>(g.value()));
  return Status::Ok();
}

Status ScenarioRunner::CmdHelp(const std::vector<std::string>& args) {
  if (args.size() > 1) return Status::InvalidArgument("help [command]");
  if (args.size() == 1) {
    const auto it = commands_.find(args[0]);
    if (it == commands_.end()) {
      std::string msg = "help: unknown command " + args[0];
      const std::string near = Suggest(args[0]);
      if (!near.empty()) msg += " (did you mean `" + near + "`?)";
      return Status::InvalidArgument(msg);
    }
    Note(it->second.usage);
    Note("  " + it->second.help);
    return Status::Ok();
  }
  Note("commands:");
  for (const auto& [name, cmd] : commands_) Note("  " + cmd.usage);
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectActive(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("expect-active <group>");
  if (!RequireCluster("expect-active")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  const auto group = static_cast<GroupId>(g.value());
  // "Active" means EFFECTIVE active: the server the coordination view
  // names, alive and serving. A fenced ex-active that is still partitioned
  // away may believe otherwise — it is harmless (every peer and the pool
  // reject its stale fence) and corrects itself on its next heartbeat, so
  // believers are deliberately not counted here.
  if (!PumpUntil(
          [this, group] { return cluster_->FindActive(group) != nullptr; })) {
    Fail("expect-active: group " + args[0] + " has no effective active");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectExists(const std::vector<std::string>& args,
                                       bool want) {
  const char* name = want ? "expect-exists" : "expect-missing";
  if (args.size() != 1) {
    return Status::InvalidArgument(std::string(name) + " <path>");
  }
  if (!RequireCluster(name)) return Status::Ok();
  const GroupId group = cluster_->config().mds.partition_map.OwnerOf(args[0]);
  core::MdsServer* active = cluster_->FindActive(group);
  if (active == nullptr) {
    Fail(std::string(name) + ": no active for " + args[0]);
    return Status::Ok();
  }
  const bool exists = active->tree().Exists(args[0]);
  if (exists != want) {
    Fail(std::string(name) + " " + args[0] + ": exists=" +
         (exists ? "true" : "false"));
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectConverged(
    const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Status::InvalidArgument("expect-converged <group>");
  }
  if (!RequireCluster("expect-converged")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  const auto group = static_cast<GroupId>(g.value());
  core::MdsServer* active = cluster_->FindActive(group);
  if (active == nullptr) {
    Fail("expect-converged: group " + args[0] + " has no active");
    return Status::Ok();
  }
  // Standbys may still be applying in-flight batches; give them a moment.
  const bool ok = PumpUntil([this, group, active] {
    for (const auto& m : cluster_->Members(group)) {
      if (m.server == active || m.role != ServerState::kStandby) continue;
      if (m.server->tree().Fingerprint() != active->tree().Fingerprint()) {
        return false;
      }
    }
    return true;
  });
  if (!ok) Fail("expect-converged: group " + args[0] + " diverged");
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectState(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Status::InvalidArgument("expect-state <group> <A|S|J|- ...>");
  }
  if (!RequireCluster("expect-state")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  std::string want;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string part = args[i];
    // Allow the row to be quoted as one token: strip quotes.
    std::erase(part, '"');
    if (part.empty()) continue;
    if (!want.empty()) want += ' ';
    want += part;
  }
  const auto group = static_cast<GroupId>(g.value());
  const bool ok = PumpUntil([this, group, &want] {
    return cluster_->coord().frontend().PeekView(group).Row() == want;
  });
  if (!ok) {
    Fail("expect-state: group " + args[0] + " is [" +
         cluster_->coord().frontend().PeekView(group).Row() + "], wanted [" +
         want + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectCounts(const std::vector<std::string>& args) {
  // expect-counts <group> A=1 S=3 J=0   (omitted letters are unchecked)
  if (args.size() < 2) {
    return Status::InvalidArgument("expect-counts <group> <X>=<n>...");
  }
  if (!RequireCluster("expect-counts")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  const auto group = static_cast<GroupId>(g.value());
  struct Want {
    ServerState state;
    int count;
  };
  std::vector<Want> wants;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string key, value;
    if (!KeyValue(args[i], key, value)) {
      return Status::InvalidArgument("expected X=n, got " + args[i]);
    }
    auto n = ParseInt(value);
    if (!n.ok()) return n.status();
    ServerState state;
    if (key == "A") state = ServerState::kActive;
    else if (key == "S") state = ServerState::kStandby;
    else if (key == "J") state = ServerState::kJunior;
    else return Status::InvalidArgument("unknown state letter: " + key);
    wants.push_back({state, n.value()});
  }
  const bool ok = PumpUntil([this, group, &wants] {
    const auto& view = cluster_->coord().frontend().PeekView(group);
    for (const auto& w : wants) {
      if (view.CountInState(w.state) != w.count) return false;
    }
    return true;
  });
  if (!ok) {
    Fail("expect-counts: group " + args[0] + " is [" +
         cluster_->coord().frontend().PeekView(group).Row() + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectProbesClean(
    const std::vector<std::string>& args) {
  if (!args.empty()) return Status::InvalidArgument("expect-probes-clean");
  if (!RequireCluster("expect-probes-clean")) return Status::Ok();
  auto& probes = sim_->obs().probes();
  probes.Evaluate();
  if (probes.violation_count() > 0) {
    const auto& v = probes.violations().front();
    Fail("expect-probes-clean: " + std::to_string(probes.violation_count()) +
         " violation(s); first: " + v.probe + ": " + v.detail);
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdPrintView(const std::vector<std::string>& args) {
  if (args.size() != 1) return Status::InvalidArgument("print-view <group>");
  if (!RequireCluster("print-view")) return Status::Ok();
  auto g = ParseInt(args[0]);
  if (!g.ok()) return g.status();
  const auto& view =
      cluster_->coord().frontend().PeekView(static_cast<GroupId>(g.value()));
  std::printf("t=%s group %s view: [%s] lock=%s fence=%llu\n",
              FormatTime(sim_->Now()).c_str(), args[0].c_str(),
              view.Row().c_str(),
              view.lock_holder == kInvalidNode ? "free" : "held",
              static_cast<unsigned long long>(view.fence_token));
  return Status::Ok();
}

}  // namespace mams::cluster
