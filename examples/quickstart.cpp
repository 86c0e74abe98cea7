// Quickstart: bring up a CFS cluster with the MAMS policy, run metadata
// operations, kill the active metadata server, and watch the service
// fail over transparently — all inside the deterministic simulator.
//
//   $ ./build/examples/quickstart
//
// The public API surface used here:
//   sim::Simulator      — the virtual-time event loop everything runs on
//   net::Network        — the simulated cluster network
//   cluster::CfsCluster — a wired CFS deployment (coord + groups + SSP)
//   cluster::FsClient   — the client library (routing, retry, reconnect)
#include <cstdio>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mams;

int main() {
  // 1. A simulator and a network. Same seed => identical run, always.
  sim::Simulator sim(/*seed=*/2024);
  net::Network network(sim);

  // 2. One replica group with three hot standbys (MAMS-1A3S), two data
  //    servers, and two clients.
  cluster::CfsConfig config;
  config.groups = 1;
  config.standbys_per_group = 3;
  config.data_servers = 2;
  config.clients = 2;
  cluster::CfsCluster cfs(network, config);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);  // deployment settles

  std::printf("cluster up: group 0 view = [%s]  (A=active S=standby)\n",
              cfs.coord().frontend().PeekView(0).Row().c_str());

  // 3. Metadata operations through the client library.
  auto& client = cfs.client(0);
  int pending = 0;
  auto done = [&](const char* what) {
    return [&pending, what](Status s) {
      std::printf("  %-28s -> %s\n", what, s.ToString().c_str());
      --pending;
    };
  };
  ++pending;
  client.Mkdir("/warehouse", done("mkdir /warehouse"));
  ++pending;
  client.Create("/warehouse/orders.parquet", done("create orders.parquet"));
  ++pending;
  client.Create("/warehouse/users.parquet", done("create users.parquet"));
  while (pending > 0) sim.RunUntil(sim.Now() + 100 * kMillisecond);

  client.GetFileInfo("/warehouse/orders.parquet",
                     [](Result<fsns::FileInfo> info) {
                       if (!info.ok()) {
                         std::printf("  stat orders.parquet          -> %s\n",
                                     info.status().ToString().c_str());
                         return;
                       }
                       std::printf("  stat orders.parquet          -> ok "
                                   "(dir=%d repl=%u)\n",
                                   info.value().is_dir,
                                   info.value().replication);
                     });
  sim.RunUntil(sim.Now() + kSecond);

  // 4. Kill the active. The standbys detect the failure via the global
  //    view, elect a new active (Algorithm 1), and take over.
  core::MdsServer* active = cfs.FindActive(0);
  std::printf("\ncrashing the active (%s) at t=%s...\n",
              active->name().c_str(), FormatTime(sim.Now()).c_str());
  cfs.faults().Crash(*active);

  // 5. The next operation spans the failover: the client library retries,
  //    reconnects to the new active, and the op succeeds — transparently.
  const SimTime issued = sim.Now();
  bool finished = false;
  client.Create("/warehouse/events.parquet", [&](Status s) {
    std::printf("  create events.parquet        -> %s  (took %s, spanning "
                "the failover)\n",
                s.ToString().c_str(), FormatTime(sim.Now() - issued).c_str());
    finished = true;
  });
  while (!finished) sim.RunUntil(sim.Now() + 100 * kMillisecond);

  core::MdsServer* new_active = cfs.FindActive(0);
  std::printf("\nnew active: %s, view = [%s]\n", new_active->name().c_str(),
              cfs.coord().frontend().PeekView(0).Row().c_str());
  std::printf("namespace intact: orders.parquet exists = %d\n",
              new_active->tree().Exists("/warehouse/orders.parquet"));

  // 6. The crashed server can come back: it rejoins as a junior and the
  //    renewing protocol upgrades it to a hot standby again.
  cfs.faults().Restart(*active);
  sim.RunUntil(sim.Now() + 20 * kSecond);
  std::printf("after restart + renewing: %s role = %s, view = [%s]\n",
              active->name().c_str(), ServerStateName(active->role()),
              cfs.coord().frontend().PeekView(0).Row().c_str());
  return 0;
}
