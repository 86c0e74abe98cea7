// Ad-hoc debug driver for the shard migration engine: boots a two-group
// cluster behind the seeded map, preloads group 0, kicks one migration,
// and debug-logs every protocol step. Pass any argument to also exercise
// the client create path before migrating.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cluster/cfs.hpp"
#include "common/logging.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"

using namespace mams;

int main(int argc, char**) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  Logger::Instance().set_level(LogLevel::kDebug);

  sim::Simulator sim(42);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 2;
  cfg.standbys_per_group = 2;
  cfg.clients = 1;
  cfg.data_servers = 1;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + 2 * kSecond);
  std::printf("== booted, t=%.3fs\n", double(sim.Now()) / kSecond);

  const shard::PartitionMap& map = cfs.config().mds.partition_map;
  std::vector<std::string> paths;
  for (const std::string& p : bench::PreloadPaths(600)) {
    if (map.OwnerOf(p) == 0) paths.push_back(p);
  }
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });
  std::uint32_t slot = map.SlotOf(paths.front());
  std::printf("== preloaded %zu files; migrating slot %u\n", paths.size(),
              slot);

  if (argc > 1) {
    // Mirror the cluster test: files hash by parent directory, so pick a
    // group-0-owned directory and create three files in it through a client.
    std::string dir;
    for (int i = 0;; ++i) {
      dir = "/mig" + std::to_string(i);
      slot = map.SlotOfDir(dir);
      if (map.OwnerOfSlot(slot) == 0) break;
    }
    std::printf("== creating in %s (slot %u)\n", dir.c_str(), slot);
    for (int i = 0; i < 3; ++i) {
      const std::string p = dir + "/f" + std::to_string(i);
      bool done = false;
      Status st = Status::TimedOut("pending");
      cfs.client(0).Create(p, [&](Status s) {
        st = s;
        done = true;
      });
      const SimTime deadline = sim.Now() + 30 * kSecond;
      while (!done && sim.Now() < deadline) {
        sim.RunUntil(sim.Now() + kMillisecond);
      }
      std::printf("== create %s -> %s (t=%.3fs)\n", p.c_str(),
                  st.ToString().c_str(), double(sim.Now()) / kSecond);
      if (!st.ok()) return 1;
    }
  }

  std::printf("== starting migration at t=%.3fs\n",
              double(sim.Now()) / kSecond);
  const Status st = cfs.StartShardMigration(slot);
  std::printf("== StartShardMigration -> %s\n", st.ToString().c_str());
  if (!st.ok()) return 1;

  core::MdsServer* a0 = cfs.FindActive(0);
  for (int i = 0; i < 100; ++i) {
    sim.RunUntil(sim.Now() + 200 * kMillisecond);
    if (a0->partition_map().OwnerOfSlot(slot) == 1) break;
  }
  std::printf("== t=%.3fs owner=%u epoch=%llu stats=%zu started=%llu "
              "completed=%llu aborted=%llu\n",
              double(sim.Now()) / kSecond, a0->partition_map().OwnerOfSlot(slot),
              (unsigned long long)a0->partition_map().epoch(),
              a0->migration_stats().size(),
              (unsigned long long)a0->counters().migrations_started,
              (unsigned long long)a0->counters().migrations_completed,
              (unsigned long long)a0->counters().migrations_aborted);
  return a0->partition_map().OwnerOfSlot(slot) == 1 ? 0 : 2;
}
