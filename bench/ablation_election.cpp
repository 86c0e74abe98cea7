// Ablation — election-window width and election policy.
//
// MAMS's active election (Algorithm 1) collects lock bids for a short
// window and grants to the largest random draw. This ablation sweeps the
// window width and compares the junior-takeover path (sn-priority when no
// standby is left) against standby elections, measuring election time and
// total failover time.
#include <memory>

#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "core/failover_trace.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using workload::Mix;
using workload::OpKind;

struct Sample {
  double election_ms = -1;
  double switch_ms = -1;
  double mttr_s = -1;
};

Sample RunFailover(SimTime window, int standbys, bool kill_all_standbys,
                   std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = standbys;
  cfg.juniors_per_group = kill_all_standbys ? 1 : 0;
  cfg.clients = 2;
  cfg.data_servers = 1;
  cfg.coord.election_window = window;
  cfg.client.max_attempts = 1;
  cfg.client.rpc_timeout = kSecond;
  if (kill_all_standbys) {
    // Keep the junior a junior until the kill (the renewing protocol would
    // otherwise promote it within a couple of seconds and the kill loop
    // below would take it out together with the standbys).
    cfg.mds.renew_scan_period = 300 * kSecond;
  }
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::LoadEngine::Options dopts;
  dopts.loop = workload::LoadEngine::Loop::kClosed;
  dopts.sessions = 2;
  workload::LoadEngine driver(sim, workload::MakeApi(cfs.client(0)),
                              Mix::Only(OpKind::kCreate), seed, dopts);
  driver.Start();
  sim.RunUntil(sim.Now() + 3 * kSecond);  // let the junior be renewed

  if (kill_all_standbys) {
    // Kill active AND every standby: only the junior path can recover
    // (Algorithm 1's else-branch — the junior with the largest sn).
    for (std::size_t m = 0; m < cfs.group_size(0); ++m) {
      auto& mds = cfs.mds(0, static_cast<int>(m));
      if (mds.alive() && (mds.role() == ServerState::kActive ||
                          mds.role() == ServerState::kStandby)) {
        cfs.faults().Crash(mds);
      }
    }
  } else {
    cfs.faults().CrashActive(0);
  }

  const SimTime cap = sim.Now() + 120 * kSecond;
  while (!driver.mttr_probe().complete() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + 250 * kMillisecond);
  }
  driver.Stop();

  Sample s;
  const auto& traces = cfs.failover_log().traces();
  if (!traces.empty() && traces.back().complete()) {
    s.election_ms = ToMillis(traces.back().ElectionTime());
    s.switch_ms = ToMillis(traces.back().SwitchTime());
  }
  if (driver.mttr_probe().complete()) {
    s.mttr_s = ToSeconds(driver.mttr_probe().mttr());
  }
  return s;
}

}  // namespace

int main() {
  bench::PrintHeader("ablation_election — window width and junior takeover",
                     "design-choice ablation (Algorithm 1)");

  const int trials = std::max(5, bench::BenchTrials() / 2);

  std::printf("\nElection window sweep (1A3S, standby election):\n\n");
  metrics::Table table({"window (ms)", "election (ms)", "switch (ms)",
                        "MTTR (s)"});
  for (SimTime window : {10 * kMillisecond, 50 * kMillisecond,
                         200 * kMillisecond, 800 * kMillisecond}) {
    metrics::Accumulator e, sw, m;
    for (int t = 0; t < trials; ++t) {
      Sample s = RunFailover(window, 3, false, bench::BenchSeed() + 31ull * t);
      if (s.election_ms >= 0) e.Record(s.election_ms);
      if (s.switch_ms >= 0) sw.Record(s.switch_ms);
      if (s.mttr_s >= 0) m.Record(s.mttr_s);
    }
    table.AddRow({metrics::Table::Num(ToMillis(window), 0),
                  metrics::Table::Num(e.mean(), 1),
                  metrics::Table::Num(sw.mean(), 1),
                  metrics::Table::Num(m.mean(), 2)});
  }
  table.Print();

  std::printf(
      "\nJunior takeover (active + all standbys lost; Algorithm 1 "
      "else-branch, sn-priority):\n\n");
  metrics::Table jt({"scenario", "election (ms)", "MTTR (s)"});
  metrics::Accumulator je, jm;
  for (int t = 0; t < trials; ++t) {
    Sample s = RunFailover(50 * kMillisecond, 2, true,
                           bench::BenchSeed() + 97ull * t);
    if (s.election_ms >= 0) je.Record(s.election_ms);
    if (s.mttr_s >= 0) jm.Record(s.mttr_s);
  }
  jt.AddRow({"junior-only election", metrics::Table::Num(je.mean(), 1),
             metrics::Table::Num(jm.mean(), 2)});
  jt.Print();
  std::printf(
      "\nReading: the window trades election latency against duelling "
      "bids; 50 ms keeps election <100 ms (the paper's figure) while "
      "absorbing bid jitter. Junior takeover keeps the service alive even "
      "with zero standbys, at the cost of journal catch-up inside MTTR.\n");
  return 0;
}
