#include "cluster/scenario.hpp"

#include <algorithm>
#include <charconv>
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

/// max_args of a command whose argument list is open-ended.
constexpr std::size_t kAnyArgs = ~std::size_t{0};

/// Parses all of `s` as a T: "2x" is an error, not 2.
template <typename T>
Result<T> ParseWhole(const std::string& s, const char* what) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [at, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || at != end) {
    return Status::InvalidArgument(std::string("bad ") + what + ": " + s);
  }
  return value;
}

/// A whole integer in [0, bound).
Result<int> ParseIndex(const std::string& s, std::size_t bound,
                       const char* what) {
  auto n = ParseWhole<int>(s, "integer");
  if (n.ok() &&
      (n.value() < 0 || static_cast<std::size_t>(n.value()) >= bound)) {
    return Status::InvalidArgument(std::string(what) + " " + s +
                                   " out of range [0, " +
                                   std::to_string(bound) + ")");
  }
  return n;
}

}  // namespace

Result<SimTime> ScenarioRunner::ParseDuration(const std::string& s) {
  double value = 0;
  const auto [unit_at, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc()) return Status::InvalidArgument("bad duration: " + s);
  const std::string_view unit(unit_at, s.data() + s.size() - unit_at);
  if (unit == "s") return static_cast<SimTime>(value * kSecond);
  if (unit == "ms") return static_cast<SimTime>(value * kMillisecond);
  if (unit == "us") return static_cast<SimTime>(value * kMicrosecond);
  return Status::InvalidArgument("bad duration unit: " + s);
}

Result<int> ScenarioRunner::ParseInt(const std::string& s) {
  return ParseWhole<int>(s, "integer");
}

Result<double> ScenarioRunner::ParseDouble(const std::string& s) {
  return ParseWhole<double>(s, "number");
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
  const Args args(tokens.begin() + 1, tokens.end());
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
  const Command& row = it->second;
  Status s = Status::Ok();
  if (args.size() < row.min_args || args.size() > row.max_args) {
    s = Status::InvalidArgument("got " + std::to_string(args.size()) +
                                " argument(s)");
  } else if (row.needs_cluster && !cluster_) {
    Fail(cmd + ": no cluster (missing `cluster` command?)");
  } else {
    s = row.handler(*this, args);
  }
  if (s.ok()) return s;
  return Status(s.code(), cmd + ": " + s.message() + "; usage: " + row.usage);
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
  using R = ScenarioRunner;
  // A row's name is the first word of its usage.
  auto add = [this](const std::string& usage, std::size_t min_args,
                    std::size_t max_args, const char* help, Handler handler,
                    bool needs_cluster = true) {
    commands_.emplace(usage.substr(0, usage.find(' ')),
                      Command{usage, help, min_args, max_args, needs_cluster,
                              std::move(handler)});
  };

  add("cluster [groups=N] [standbys=N] [juniors=N] [clients=N] [seed=N] "
      "[standby_reads=0|1]", 0, 6,
      "Builds and boots the cluster under test. Must run before any other "
      "command. standby_reads=1 enables bounded-staleness standby reads "
      "with round-robin client routing.",
      &R::CmdCluster, /*needs_cluster=*/false);
  add("run <duration>", 1, 1,
      "Advances virtual time, e.g. `run 2s`, `run 500ms`.", &R::CmdRun);
  for (const char* op : {"create", "mkdir", "delete", "stat"}) {
    add(std::string(op) + " <path>", 1, 1,
        "Issues the client op through client 0 and waits for the reply. "
        "Failures are logged and counted, not fatal (see expect-ops-ok).",
        [op = std::string(op)](R& r, const Args& a) {
          return r.CmdClientOp(op, a);
        });
  }
  add("crash-active <group>", 1, 1,
      "Kills the group's current active (the paper's failover trigger).",
      &R::CmdCrashActive);
  add("crash <group> <member>", 2, 2,
      "Kills one specific member by group index.",
      [](R& r, const Args& a) { return r.CmdCrash(a, /*restart=*/false); });
  add("restart <group> <member>", 2, 2,
      "Restarts a crashed member; it rejoins as a junior and is renewed.",
      [](R& r, const Args& a) { return r.CmdCrash(a, /*restart=*/true); });
  add("crash-pool <group> <member>", 2, 2,
      "Kills the pool (SSP) node co-hosted with member (group, member).",
      [](R& r, const Args& a) {
        return r.CmdCrashPool(a, /*restart=*/false);
      });
  add("restart-pool <group> <member>", 2, 2,
      "Restarts the co-hosted pool node killed by crash-pool.",
      [](R& r, const Args& a) { return r.CmdCrashPool(a, /*restart=*/true); });
  add("unplug <group> <member>", 2, 2,
      "Pulls the member's network cable (paper Test B); in-flight messages "
      "are lost.",
      [](R& r, const Args& a) { return r.CmdUnplug(a, /*up=*/false); });
  add("replug <group> <member>", 2, 2, "Plugs the cable back in.",
      [](R& r, const Args& a) { return r.CmdUnplug(a, /*up=*/true); });
  add("force-lock-release <group>", 1, 1,
      "Admin-releases the group lock (the paper's Test A injection).",
      &R::CmdForceLockRelease);
  add("help [command]", 0, 1,
      "Lists every registered command, or one command's usage and help.",
      &R::CmdHelp, /*needs_cluster=*/false);
  add("expect-active <group>", 1, 1,
      "Waits until the coordination view names an alive, serving active.",
      &R::CmdExpectActive);
  add("expect-exists <path>", 1, 1,
      "Asserts the path exists on its owner group's active.",
      [](R& r, const Args& a) { return r.CmdExpectExists(a, /*want=*/true); });
  add("expect-missing <path>", 1, 1,
      "Asserts the path does not exist on its owner group's active.",
      [](R& r, const Args& a) {
        return r.CmdExpectExists(a, /*want=*/false);
      });
  add("expect-converged <group>", 1, 1,
      "Waits until every alive standby's namespace matches the active's.",
      &R::CmdExpectConverged);
  add("expect-state <group> <A|S|J|- ...>", 2, kAnyArgs,
      "Waits until the view row equals the given letters (Table II rows).",
      &R::CmdExpectState);
  add("expect-counts <group> [A=n] [S=n] [J=n]", 2, 4,
      "Waits until the view holds the given per-state counts.",
      &R::CmdExpectCounts);
  add("expect-ops-ok", 0, 0, "Asserts no client op issued so far failed.",
      [](R& r, const Args&) {
        if (r.ops_failed_ > 0) {
          r.Fail("expect-ops-ok: " + std::to_string(r.ops_failed_) +
                 " client op(s) failed");
        }
        return Status::Ok();
      },
      /*needs_cluster=*/false);
  add("expect-probes-clean", 0, 0,
      "Evaluates every safety probe now and asserts no invariant violation "
      "has been recorded in the whole run.",
      &R::CmdExpectProbesClean);
  add("print-view <group>", 1, 1,
      "Prints the group's coordination view row, lock and fence.",
      &R::CmdPrintView);
  add("load open [rate=R] [flash_mult=M] [flash_start=D] [flash_len=D] "
      "[create=F] [dirs=N] [ops=N] [hot_group=G] [hot_weight=W] "
      "| load stop", 1, kAnyArgs,
      "Runs open-loop session load against the cluster; flash_* shapes a "
      "flash crowd, hot_group skews arrivals onto one group.",
      &R::CmdLoad);
  add("slow-disk <group> <member> <factor|off>", 3, 3,
      "Gray failure: multiplies the co-hosted pool node's disk time.",
      &R::CmdSlowDisk);
  add("asymmetry <group> <member> in|out|off", 3, 3,
      "Directional link failure: kill only the member's receive half "
      "(in), its transmit half (out), or restore both (off).",
      &R::CmdAsymmetry);
  add("add-standby <group>", 1, 1,
      "Grows the group by one standby via the membership API.",
      &R::CmdAddStandby);
  add("remove-standby <group>", 1, 1,
      "Retires one drained standby via the membership API.",
      &R::CmdRemoveStandby);
  add("promote <group>", 1, 1,
      "Nudges the active to renew a junior into a standby now.",
      &R::CmdPromote);
  add("expect-standbys <group> <min> [max]", 2, 3,
      "Waits until the group's alive standby count is within [min, max].",
      &R::CmdExpectStandbys);
  add("expect-metric <name> <op> <value>", 3, 3,
      "Asserts on a counter, gauge, or histogram stat "
      "(name.p50/.p90/.p99/.mean/.count); ops: == >= <= > <.",
      &R::CmdExpectMetric);
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

Result<GroupId> ScenarioRunner::Group(const std::string& g) const {
  auto group = ParseIndex(g, cluster_->config().groups, "group");
  if (!group.ok()) return group.status();
  return static_cast<GroupId>(group.value());
}

Result<core::MdsServer*> ScenarioRunner::Member(const std::string& g,
                                                const std::string& m) {
  auto group = Group(g);
  if (!group.ok()) return group.status();
  auto member = ParseIndex(m, cluster_->group_size(group.value()), "member");
  if (!member.ok()) return member.status();
  return &cluster_->mds(group.value(), member.value());
}

Result<storage::PoolNode*> ScenarioRunner::PoolOf(const std::string& g,
                                                  const std::string& m) {
  // One pool node per initially configured metadata node.
  auto group = Group(g);
  if (!group.ok()) return group.status();
  auto member = ParseIndex(
      m, cluster_->pool_node_count() / cluster_->config().groups,
      "pool member");
  if (!member.ok()) return member.status();
  return &cluster_->pool_node(group.value(), member.value());
}

Status ScenarioRunner::CmdCluster(const Args& args) {
  CfsConfig cfg;
  cfg.clients = 2;
  cfg.data_servers = 1;
  int groups = 1;
  std::uint64_t seed = 1;
  for (const auto& tok : args) {
    std::string key, value;
    if (!KeyValue(tok, key, value)) {
      return Status::InvalidArgument("expected key=value, got " + tok);
    }
    auto num = ParseInt(value);
    if (!num.ok()) return num.status();
    if (key == "groups") {
      groups = num.value();
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
  if (groups < 1 || cfg.standbys_per_group < 0 || cfg.juniors_per_group < 0 ||
      cfg.clients < 1) {
    return Status::InvalidArgument(
        "needs groups >= 1, standbys >= 0, juniors >= 0 and clients >= 1");
  }
  cfg.groups = static_cast<GroupId>(groups);
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

Status ScenarioRunner::CmdRun(const Args& args) {
  auto dt = ParseDuration(args[0]);
  if (!dt.ok()) return dt.status();
  sim_->RunUntil(sim_->Now() + dt.value());
  return Status::Ok();
}

Status ScenarioRunner::CmdClientOp(const std::string& op, const Args& args) {
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

Status ScenarioRunner::CmdCrashActive(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  if (core::MdsServer* victim = cluster_->faults().CrashActive(g.value())) {
    Note("crashing " + victim->name());
  } else {
    Fail("crash-active: group " + args[0] + " has no active");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdCrash(const Args& args, bool restart) {
  auto mds = Member(args[0], args[1]);
  if (!mds.ok()) return mds.status();
  Faults& faults = cluster_->faults();
  restart ? faults.Restart(*mds.value()) : faults.Crash(*mds.value());
  return Status::Ok();
}

Status ScenarioRunner::CmdCrashPool(const Args& args, bool restart) {
  auto pool = PoolOf(args[0], args[1]);
  if (!pool.ok()) return pool.status();
  Faults& faults = cluster_->faults();
  restart ? faults.Restart(*pool.value()) : faults.Crash(*pool.value());
  Note((restart ? "restarted " : "crashed ") + pool.value()->name());
  return Status::Ok();
}

Status ScenarioRunner::CmdUnplug(const Args& args, bool up) {
  auto mds = Member(args[0], args[1]);
  if (!mds.ok()) return mds.status();
  Faults& faults = cluster_->faults();
  up ? faults.Replug(mds.value()->id()) : faults.Unplug(mds.value()->id());
  Note(std::string(up ? "replug " : "unplug ") + mds.value()->name());
  return Status::Ok();
}

Status ScenarioRunner::CmdForceLockRelease(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  cluster_->faults().ForceLockRelease(g.value());
  return Status::Ok();
}

Status ScenarioRunner::CmdHelp(const Args& args) {
  if (args.size() == 1) {
    const auto it = commands_.find(args[0]);
    if (it == commands_.end()) {
      std::string msg = "unknown command " + args[0];
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

Status ScenarioRunner::CmdExpectActive(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  // "Active" means EFFECTIVE active: the server the coordination view
  // names, alive and serving. A fenced ex-active that is still partitioned
  // away may believe otherwise — it is harmless (every peer and the pool
  // reject its stale fence) and corrects itself on its next heartbeat, so
  // believers are deliberately not counted here.
  if (!PumpUntil([this, group = g.value()] {
        return cluster_->FindActive(group) != nullptr;
      })) {
    Fail("expect-active: group " + args[0] + " has no effective active");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectExists(const Args& args, bool want) {
  const char* name = want ? "expect-exists" : "expect-missing";
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

Status ScenarioRunner::CmdExpectConverged(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  const GroupId group = g.value();
  if (cluster_->FindActive(group) == nullptr) {
    Fail("expect-converged: group " + args[0] + " has no active");
    return Status::Ok();
  }
  // Standbys may still be applying in-flight batches; give them a moment.
  const bool ok = PumpUntil([this, group] {
    return cluster_->FindActive(group) != nullptr &&
           cluster_->DivergedStandbys(group).empty();
  });
  if (!ok) Fail("expect-converged: group " + args[0] + " diverged");
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectState(const Args& args) {
  auto g = Group(args[0]);
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
  const GroupId group = g.value();
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

Status ScenarioRunner::CmdExpectCounts(const Args& args) {
  // expect-counts <group> A=1 S=3 J=0   (omitted letters are unchecked)
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  const GroupId group = g.value();
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

Status ScenarioRunner::CmdExpectProbesClean(const Args&) {
  auto& probes = sim_->obs().probes();
  probes.Evaluate();
  if (probes.violation_count() > 0) {
    const auto& v = probes.violations().front();
    Fail("expect-probes-clean: " + std::to_string(probes.violation_count()) +
         " violation(s); first: " + v.probe + ": " + v.detail);
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdPrintView(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  const auto& view = cluster_->coord().frontend().PeekView(g.value());
  std::printf("t=%s group %s view: [%s] lock=%s fence=%llu\n",
              FormatTime(sim_->Now()).c_str(), args[0].c_str(),
              view.Row().c_str(),
              view.lock_holder == kInvalidNode ? "free" : "held",
              static_cast<unsigned long long>(view.fence_token));
  return Status::Ok();
}

}  // namespace mams::cluster
