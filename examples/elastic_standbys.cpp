// Elastic reliability: add backup nodes to a running replica group and
// watch the renewing protocol (Section III.D) bring them from junior to
// hot standby while the active keeps serving load — the paper's "more new
// backup nodes can also be added in the replica group at runtime".
#include <cstdio>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/load_engine.hpp"

using namespace mams;

int main() {
  sim::Simulator sim(99);
  net::Network network(sim);
  cluster::CfsConfig config;
  config.groups = 1;
  config.standbys_per_group = 1;  // start thin: one active, one standby
  config.clients = 2;
  config.data_servers = 1;
  cluster::CfsCluster cfs(network, config);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);
  std::printf("start: view = [%s]\n",
              cfs.coord().frontend().PeekView(0).Row().c_str());

  // Continuous client load for the whole session.
  workload::Mix mix;
  mix.create = 0.7;
  mix.getfileinfo = 0.3;
  workload::LoadEngine::Options dopts;
  dopts.loop = workload::LoadEngine::Loop::kClosed;
  dopts.sessions = 4;
  workload::LoadEngine driver(sim, workload::MakeApi(cfs.client(0)), mix, 5,
                              dopts);
  driver.Start();
  sim.RunUntil(sim.Now() + 3 * kSecond);

  // Grow the group twice, under load.
  for (int round = 0; round < 2; ++round) {
    auto& added = cfs.AddStandby(0);
    std::printf("t=%s: added backup %s (boots as junior)\n",
                FormatTime(sim.Now()).c_str(), added.name().c_str());
    const SimTime t0 = sim.Now();
    while (added.role() != ServerState::kStandby &&
           sim.Now() < t0 + 120 * kSecond) {
      sim.RunUntil(sim.Now() + 500 * kMillisecond);
    }
    std::printf("t=%s: %s renewed to %s after %s; view = [%s]\n",
                FormatTime(sim.Now()).c_str(), added.name().c_str(),
                ServerStateName(added.role()),
                FormatTime(sim.Now() - t0).c_str(),
                cfs.coord().frontend().PeekView(0).Row().c_str());
    // Pause the load briefly so in-flight batches drain, then compare.
    driver.Stop();
    sim.RunUntil(sim.Now() + 2 * kSecond);
    std::printf("        namespace fingerprints match active: %s\n",
                added.tree().Fingerprint() ==
                        cfs.FindActive(0)->tree().Fingerprint()
                    ? "yes"
                    : "NO");
    driver.Start();
  }

  // The grown group now survives a double failure.
  std::printf("\nkilling the active AND the original standby...\n");
  cfs.faults().CrashActive(0);
  cfs.faults().Crash(cfs.mds(0, 1));
  sim.RunUntil(sim.Now() + 12 * kSecond);
  auto* active = cfs.FindActive(0);
  std::printf("survivor elected: %s; view = [%s]\n",
              active ? active->name().c_str() : "NONE",
              cfs.coord().frontend().PeekView(0).Row().c_str());
  driver.Stop();
  std::printf("client ops completed throughout: %llu (failed: %llu)\n",
              (unsigned long long)driver.completed(),
              (unsigned long long)driver.failed());
  return 0;
}
