// Figure 8 + Table II — "Failover ability of metadata operations" under
// three fault-injection scenarios, with the server state-transition traces.
//
//   Test A — the active loses the distributed lock (the global view is
//            modified administratively);
//   Test B — network wires of two servers are pulled and later re-plugged;
//   Test C — processes are shut down and later restarted.
//
// Output: the per-second request rate timeline around the injections
// (Figure 8) and the recorded sequence of group-view rows (Table II),
// using the paper's notation (A = active, S = standby, J = junior,
// - = down).
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using workload::Mix;

struct Scenario {
  const char* name;
  const char* description;
  // Injects faults; called once with everything wired.
  std::function<void(sim::Simulator&, cluster::CfsCluster&)> schedule;
};

struct ScenarioResult {
  std::vector<double> rps;                 // per-second request rate
  std::vector<std::string> state_rows;     // Table II rows (deduped)
  std::vector<double> state_times;
};

constexpr SimTime kDuration = 240 * kSecond;

ScenarioResult RunScenario(const Scenario& scenario, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;  // 1A3S, as in Section IV.C
  cfg.clients = 4;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  // Continuous create + mkdir load ("continuous create and regular mkdir
  // operations ... files distributed among multiple directories").
  Mix mix;
  mix.create = 0.8;
  mix.mkdir = 0.2;
  std::vector<std::unique_ptr<workload::LoadEngine>> drivers;
  for (int c = 0; c < cfg.clients; ++c) {
    workload::LoadEngine::Options opts;
    opts.loop = workload::LoadEngine::Loop::kClosed;
    opts.sessions = 4;
    drivers.push_back(std::make_unique<workload::LoadEngine>(
        sim, workload::MakeApi(cfs.client(c)), mix, seed * 5 + c, opts));
    drivers.back()->Start();
  }

  scenario.schedule(sim, cfs);

  // Sample the group view every 100 ms to record Table II's transitions.
  ScenarioResult result;
  std::string last_row;
  const SimTime t0 = sim.Now();
  while (sim.Now() < t0 + kDuration) {
    sim.RunUntil(sim.Now() + 100 * kMillisecond);
    const std::string row = cfs.coord().frontend().PeekView(0).Row();
    if (row != last_row) {
      result.state_rows.push_back(row);
      result.state_times.push_back(ToSeconds(sim.Now() - t0));
      last_row = row;
    }
  }
  for (auto& d : drivers) d->Stop();

  // Aggregate the per-second rate across all drivers.
  std::size_t buckets = 0;
  for (auto& d : drivers) buckets = std::max(buckets, d->rate().bucket_count());
  result.rps.assign(buckets, 0.0);
  for (auto& d : drivers) {
    for (std::size_t b = 0; b < d->rate().bucket_count(); ++b) {
      result.rps[b] += d->rate().RatePerSecond(b);
    }
  }
  return result;
}

void Print(const char* name, const char* description,
           const ScenarioResult& r) {
  std::printf("\n--- %s ---\n%s\n", name, description);
  std::printf("\nTable II state transitions (MDS BN BN BN):\n");
  for (std::size_t i = 0; i < r.state_rows.size(); ++i) {
    std::printf("  t=%7.1fs   %s\n", r.state_times[i],
                r.state_rows[i].c_str());
  }
  std::printf("\nRequests/s timeline (5 s buckets, '#' = 2k ops/s):\n");
  for (std::size_t b = 0; b + 5 <= r.rps.size(); b += 5) {
    double avg = 0;
    for (std::size_t k = b; k < b + 5; ++k) avg += r.rps[k];
    avg /= 5;
    std::string bar(static_cast<std::size_t>(avg / 2000.0), '#');
    std::printf("  %3zus-%3zus %8.0f |%s\n", b, b + 5, avg, bar.c_str());
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fig8_failover_scenarios — failover ability under three error types",
      "Figure 8 + Table II (Section IV.C)");

  const std::uint64_t seed = bench::BenchSeed();

  // Test A: make the active lose the lock at t = 60, 120, 180 s.
  Scenario test_a{
      "Test A — active loses the lock",
      "The global view is modified so the current active loses the "
      "distributed lock; it must stop serving, a standby is elected, and "
      "the deposed server re-registers as a standby.",
      [](sim::Simulator& sim, cluster::CfsCluster& cfs) {
        for (SimTime at : {60 * kSecond, 120 * kSecond, 180 * kSecond}) {
          sim.After(at, [&cfs] { cfs.faults().ForceLockRelease(0); });
        }
      }};

  // Test B: pull the wires of two servers (the active and one standby) at
  // t = 60 s, re-plug at 100 s; repeat for another pair at 150/190 s.
  Scenario test_b{
      "Test B — take out / plug back network wires",
      "Two servers lose their network at once (multi-point failure); their "
      "sessions expire, a surviving standby takes over; when re-plugged the "
      "isolated servers re-register and are renewed to standbys.",
      [](sim::Simulator& sim, cluster::CfsCluster& cfs) {
        // Members `first` and `first + 1` are out from `at` for 40 s.
        auto pull_pair = [&sim, &cfs](SimTime at, int first) {
          sim.After(at, [&cfs, first] {
            cfs.faults().Unplug(cfs.mds(0, first).id());
            cfs.faults().Unplug(cfs.mds(0, first + 1).id());
          });
          sim.After(at + 40 * kSecond, [&cfs, first] {
            cfs.faults().Replug(cfs.mds(0, first).id());
            cfs.faults().Replug(cfs.mds(0, first + 1).id());
          });
        };
        pull_pair(60 * kSecond, 0);
        pull_pair(150 * kSecond, 2);
      }};

  // Test C: kill processes and restart them later.
  Scenario test_c{
      "Test C — shut down and restart processes",
      "The active process is killed at 60 s and restarted at 75 s (rejoins "
      "as junior, renewed to standby); the new active is killed at 140 s "
      "and restarted at 155 s.",
      [](sim::Simulator& sim, cluster::CfsCluster& cfs) {
        for (SimTime at : {60 * kSecond, 140 * kSecond}) {
          sim.After(at, [&cfs] { cfs.faults().CrashActive(0, 15 * kSecond); });
        }
      }};

  for (const auto& s : {test_a, test_b, test_c}) {
    const ScenarioResult r = RunScenario(s, seed);
    Print(s.name, s.description, r);
  }

  std::printf(
      "\nPaper shape: rate dips to ~0 for the failover window (several "
      "seconds), then recovers fully; every scenario ends with one active "
      "and the survivors as standbys (Table II's final rows).\n");
  return 0;
}
