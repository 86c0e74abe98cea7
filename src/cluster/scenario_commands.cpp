// ScenarioRunner's load and membership commands: open-loop load, gray and
// directional faults, typed membership changes, and metric expectations.
// Their rows (usage, arity) are in RegisterBuiltins with the other builtins.
#include <memory>
#include <optional>

#include "cluster/scenario.hpp"
#include "workload/load_engine.hpp"

namespace mams::cluster {

Status ScenarioRunner::CmdLoad(const Args& args) {
  if (args[0] == "stop") {
    if (!load_) {
      Fail("load stop: no load engine running");
      return Status::Ok();
    }
    load_->Stop();
    Note("load stopped: " + std::to_string(load_->completed()) +
         " ok, " + std::to_string(load_->failed()) + " failed");
    return Status::Ok();
  }
  if (args[0] != "open") {
    return Status::InvalidArgument("expected open or stop, got " + args[0]);
  }

  double rate = 500.0, flash_mult = 0.0, create_frac = 0.2, hot_weight = 8.0;
  SimTime flash_start = 0, flash_len = 0;
  int dirs = 64, ops = 4;
  std::optional<GroupId> hot_group;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string key, value;
    if (!KeyValue(args[i], key, value)) {
      return Status::InvalidArgument("expected key=value, got " + args[i]);
    }
    if (key == "rate" || key == "flash_mult" || key == "create" ||
        key == "hot_weight") {
      auto x = ParseDouble(value);
      if (!x.ok()) return x.status();
      if (key == "rate") rate = x.value();
      else if (key == "flash_mult") flash_mult = x.value();
      else if (key == "create") create_frac = x.value();
      else hot_weight = x.value();
    } else if (key == "flash_start" || key == "flash_len") {
      auto d = ParseDuration(value);
      if (!d.ok()) return d.status();
      if (key == "flash_start") flash_start = d.value();
      else flash_len = d.value();
    } else if (key == "dirs" || key == "ops") {
      auto n = ParseInt(value);
      if (!n.ok()) return n.status();
      if (key == "dirs") dirs = n.value();
      else ops = n.value();
    } else if (key == "hot_group") {
      auto g = Group(value);
      if (!g.ok()) return g.status();
      hot_group = g.value();
    } else {
      return Status::InvalidArgument("unknown load option: " + key);
    }
  }

  workload::LoadEngineOptions opts;
  opts.loop = workload::LoadEngineOptions::Loop::kOpen;
  opts.arrival =
      flash_mult > 1.0
          ? workload::ArrivalCurve::FlashCrowd(
                rate, ToSeconds(flash_start), ToSeconds(flash_len),
                flash_mult)
          : workload::ArrivalCurve::Constant(rate);
  opts.ops_per_session = static_cast<std::uint32_t>(ops > 0 ? ops : 1);
  opts.directories = dirs;
  if (hot_group) {
    // Skew arrivals toward one group: weight `hot_weight` for the hot
    // group, 1 for everyone else. A directory belongs to the group that
    // holds its children (the files the load touches), by the cluster map.
    const CfsConfig& config = cluster_->config();
    opts.group_weights.assign(config.groups, 1.0);
    opts.group_weights[*hot_group] = hot_weight;
    opts.group_of = [map = config.mds.partition_map](const std::string& dir) {
      return map.OwnerOfDir(dir);
    };
  }

  workload::Mix mix;
  mix.create = create_frac;
  mix.getfileinfo = 1.0 - create_frac;

  std::vector<workload::ClientApi> apis;
  for (int c = 0; c < cluster_->client_count(); ++c) {
    apis.push_back(workload::MakeApi(cluster_->client(c)));
  }
  load_ = std::make_unique<workload::LoadEngine>(
      *sim_, std::move(apis), mix, /*seed=*/42, opts);
  load_->Start();
  Note("load open: rate=" + std::to_string(rate) +
       (flash_mult > 1.0 ? " flash x" + std::to_string(flash_mult) : ""));
  return Status::Ok();
}

Status ScenarioRunner::CmdSlowDisk(const Args& args) {
  auto pool = PoolOf(args[0], args[1]);
  if (!pool.ok()) return pool.status();
  double factor = 1.0;
  if (args[2] != "off") {
    auto x = ParseDouble(args[2]);
    if (!x.ok()) return x.status();
    factor = x.value();
  }
  cluster_->faults().SlowDisk(*pool.value(), factor);
  Note("slow-disk " + pool.value()->name() + " x" + std::to_string(factor));
  return Status::Ok();
}

Status ScenarioRunner::CmdAsymmetry(const Args& args) {
  auto mds = Member(args[0], args[1]);
  if (!mds.ok()) return mds.status();
  const NodeId id = mds.value()->id();
  Faults& faults = cluster_->faults();
  if (args[2] == "out") {
    faults.CutHalf(id, Faults::Half::kOut);
  } else if (args[2] == "in") {
    faults.CutHalf(id, Faults::Half::kIn);
  } else if (args[2] == "off") {
    faults.RestoreHalves(id);
  } else {
    return Status::InvalidArgument("expected in, out or off, got " + args[2]);
  }
  Note("asymmetry " + mds.value()->name() + " " + args[2]);
  return Status::Ok();
}

Status ScenarioRunner::CmdAddStandby(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  auto& added = cluster_->AddStandby(g.value());
  Note("added " + added.name());
  return Status::Ok();
}

Status ScenarioRunner::CmdRemoveStandby(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  Status s = cluster_->RemoveStandby(g.value());
  if (!s.ok()) {
    Fail("remove-standby: " + s.ToString());
  } else {
    Note("removed one standby from group " + args[0]);
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdPromote(const Args& args) {
  auto g = Group(args[0]);
  if (!g.ok()) return g.status();
  Status s = cluster_->PromoteJunior(g.value());
  if (!s.ok()) Fail("promote: " + s.ToString());
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectStandbys(const Args& args) {
  auto g = Group(args[0]);
  auto lo = ParseInt(args[1]);
  if (!g.ok()) return g.status();
  if (!lo.ok()) return lo.status();
  int hi = lo.value();
  if (args.size() == 3) {
    auto x = ParseInt(args[2]);
    if (!x.ok()) return x.status();
    hi = x.value();
  }
  const GroupId group = g.value();
  const bool ok = PumpUntil([this, group, lo = lo.value(), hi] {
    const int n = cluster_->CountRole(group, ServerState::kStandby);
    return n >= lo && n <= hi;
  });
  if (!ok) {
    Fail("expect-standbys: group " + args[0] + " has " +
         std::to_string(cluster_->CountRole(group, ServerState::kStandby)) +
         " standbys, wanted [" + std::to_string(lo.value()) + ", " +
         std::to_string(hi) + "]");
  }
  return Status::Ok();
}

Status ScenarioRunner::CmdExpectMetric(const Args& args) {
  const std::string& name = args[0];
  const std::string& op = args[1];
  auto want = ParseDouble(args[2]);
  if (!want.ok()) return want.status();

  // Resolve: counter, gauge, or histogram with a .p50/.p90/.p99/.mean/
  // .count suffix. Resolution failure is an expectation failure, not a
  // parse error — a scenario may legitimately probe a metric that was
  // never touched.
  const auto& metrics = sim_->obs().metrics();
  double have = 0;
  bool found = false;
  if (const auto it = metrics.counters().find(name);
      it != metrics.counters().end()) {
    have = static_cast<double>(it->second.value);
    found = true;
  } else if (const auto git = metrics.gauges().find(name);
             git != metrics.gauges().end()) {
    have = static_cast<double>(git->second.value);
    found = true;
  } else if (const auto dot = name.rfind('.'); dot != std::string::npos) {
    const std::string base = name.substr(0, dot);
    const std::string stat = name.substr(dot + 1);
    if (const auto hit = metrics.histograms().find(base);
        hit != metrics.histograms().end()) {
      const obs::Histogram& h = hit->second;
      found = true;
      if (stat == "p50") have = static_cast<double>(h.Quantile(0.50));
      else if (stat == "p90") have = static_cast<double>(h.Quantile(0.90));
      else if (stat == "p99") have = static_cast<double>(h.Quantile(0.99));
      else if (stat == "mean") have = h.Mean();
      else if (stat == "count") have = static_cast<double>(h.count());
      else found = false;
    }
  }
  if (!found) {
    Fail("expect-metric: no metric named " + name);
    return Status::Ok();
  }

  bool ok;
  if (op == "==") ok = have == want.value();
  else if (op == ">=") ok = have >= want.value();
  else if (op == "<=") ok = have <= want.value();
  else if (op == ">") ok = have > want.value();
  else if (op == "<") ok = have < want.value();
  else return Status::InvalidArgument("op must be == >= <= > <, got " + op);
  if (!ok) {
    Fail("expect-metric: " + name + " = " + std::to_string(have) +
         ", wanted " + op + " " + args[2]);
  }
  return Status::Ok();
}

}  // namespace mams::cluster
