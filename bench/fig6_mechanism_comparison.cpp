// Figure 6 — "Comparison on metadata operation performance with different
// reliability mechanisms".
//
// Mixed create/getfileinfo/mkdir workload against: vanilla HDFS,
// HDFS+BackupNode, AvatarNode, Hadoop HA (QJM), and CFS with MAMS-1A3S.
//
// Expected shape (paper Section IV.A): every reliability mechanism costs
// throughput relative to HDFS; BackupNode costs least (async stream, no
// consistency guarantee); CFS-1A3S beats AvatarNode and Hadoop HA despite
// keeping three hot standbys, because SSP-based journal synchronization is
// cheaper than synchronous NFS writes or quorum journal writes.
#include <memory>
#include <vector>

#include "baselines/systems.hpp"
#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using workload::Mix;

constexpr int kClients = 4;
constexpr int kSessions = 4;

template <typename MakeClientApi>
double MeasureMixed(sim::Simulator& sim, MakeClientApi make_api,
                    std::uint64_t seed) {
  std::vector<std::unique_ptr<workload::LoadEngine>> drivers;
  for (int c = 0; c < kClients; ++c) {
    workload::LoadEngine::Options opts;
    opts.loop = workload::LoadEngine::Loop::kClosed;
    opts.sessions = kSessions;
    drivers.push_back(std::make_unique<workload::LoadEngine>(
        sim, make_api(c), Mix::Mixed(), seed * 11 + c, opts));
    drivers.back()->Start();
  }
  sim.RunUntil(sim.Now() + bench::BenchSeconds() * kSecond);
  double total = 0;
  for (auto& d : drivers) {
    d->Stop();
    total += bench::SteadyThroughput(d->rate());
  }
  return total;
}

double RunHdfs(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::HdfsSystem sys(net, kClients);
  sim.RunUntil(sim.Now() + 500 * kMillisecond);
  return MeasureMixed(
      sim, [&](int c) { return workload::MakeApi(sys.client(c)); }, seed);
}

double RunBackupNode(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::BackupNodeSystem::Options opts;
  opts.clients = kClients;
  baselines::BackupNodeSystem sys(net, opts);
  sim.RunUntil(sim.Now() + 500 * kMillisecond);
  return MeasureMixed(
      sim, [&](int c) { return workload::MakeApi(sys.client(c)); }, seed);
}

double RunAvatar(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::SharedEditsSystem::Options opts;
  opts.clients = kClients;
  baselines::SharedEditsSystem sys(net, baselines::kAvatar, opts);
  sim.RunUntil(sim.Now() + 500 * kMillisecond);
  return MeasureMixed(
      sim, [&](int c) { return workload::MakeApi(sys.client(c)); }, seed);
}

double RunHadoopHa(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::SharedEditsSystem::Options opts;
  opts.clients = kClients;
  baselines::SharedEditsSystem sys(net, baselines::kHadoopHa, opts);
  sim.RunUntil(sim.Now() + 500 * kMillisecond);
  return MeasureMixed(
      sim, [&](int c) { return workload::MakeApi(sys.client(c)); }, seed);
}

double RunCfs1A3S(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;
  cfg.clients = kClients;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);
  return MeasureMixed(
      sim, [&](int c) { return workload::MakeApi(cfs.client(c)); }, seed);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fig6_mechanism_comparison — mixed workload across HA mechanisms",
      "Figure 6 (Section IV.A)");

  const std::uint64_t seed = bench::BenchSeed();
  metrics::Table table({"system", "mixed ops/s", "vs HDFS"});
  const double hdfs = RunHdfs(seed);
  auto add = [&](const char* name, double tput) {
    table.AddRow({name, metrics::Table::Num(tput, 0),
                  metrics::Table::Num(100.0 * tput / hdfs, 1) + "%"});
    std::printf("  ... %s done\n", name);
  };
  add("HDFS (no HA)", hdfs);
  add("BackupNode", RunBackupNode(seed));
  add("Hadoop Avatar", RunAvatar(seed));
  add("Hadoop HA (QJM)", RunHadoopHa(seed));
  add("CFS MAMS-1A3S", RunCfs1A3S(seed));

  std::printf("\nMixed create/getfileinfo/mkdir workload (40/40/20), %d s:\n\n",
              bench::BenchSeconds());
  table.Print();
  std::printf(
      "\nPaper shape: HDFS > BackupNode > CFS-1A3S > Avatar ~ HA;\n"
      "BackupNode pays least (async, unsafe), CFS beats Avatar/HA via SSP.\n");
  return 0;
}
