// Figure 9 — "Run time comparison for MapReduce programs in case of
// failures": cumulative distribution of completed map/reduce tasks over
// time for a wordcount job on a 5 GB input, with a metadata-server failure
// injected mid-job. CFS is configured 3A9S (three groups, three standbys
// each — twelve metadata nodes, as in Section IV.D); the comparison system
// is Boom-FS (Paxos-RSM metadata).
//
// Expected shape: both systems pause when the failure hits; CFS resumes
// after its sub-7-second failover, Boom-FS's map tasks stay suspended
// through the centralized master recovery, delaying map completion ~28%
// and reduce completion ~10%.
#include <memory>
#include <vector>

#include "baselines/systems.hpp"
#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "workload/mapreduce.hpp"

namespace {

using namespace mams;

constexpr SimTime kFailAt = 5 * kSecond;

struct JobResult {
  std::vector<double> map_done_s;
  std::vector<double> reduce_done_s;
  double total_s = 0;
};

JobResult RunCfs(std::uint64_t seed, bool inject_failure) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 3;
  cfg.standbys_per_group = 3;  // 3A9S
  cfg.clients = 1;
  cfg.data_servers = 4;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::MapReduceJob job(sim, workload::MakeApi(cfs.client(0)), {}, seed);
  // Crash the active of the group that owns the job's input splits, so the
  // failure actually lands in the map tasks' metadata path.
  const GroupId input_group =
      cfs.config().mds.partition_map.OwnerOf("/job/in/part-0");
  bool finished = false;
  SimTime job_start = 0;
  job.Setup([&] {
    job_start = sim.Now();
    job.Run([&] { finished = true; });
    if (inject_failure) {
      sim.After(kFailAt, [&cfs, input_group] {
        cfs.faults().CrashActive(input_group);
      });
    }
  });
  sim.RunUntil(sim.Now() + 3600 * kSecond);

  JobResult r;
  if (!finished) return r;
  for (SimTime t : job.map_completions()) {
    r.map_done_s.push_back(ToSeconds(t - job_start));
  }
  for (SimTime t : job.reduce_completions()) {
    r.reduce_done_s.push_back(ToSeconds(t - job_start));
  }
  r.total_s = ToSeconds(job.finish_time() - job_start);
  return r;
}

JobResult RunBoom(std::uint64_t seed, bool inject_failure) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::BoomFsSystem boom(net, /*clients=*/1);
  sim.RunUntil(sim.Now() + kSecond);

  workload::MapReduceJob job(sim, workload::MakeApi(boom.client(0)), {}, seed);
  bool finished = false;
  SimTime job_start = 0;
  job.Setup([&] {
    job_start = sim.Now();
    job.Run([&] { finished = true; });
    if (inject_failure) {
      sim.After(kFailAt, [&boom] { boom.KillMaster(); });
    }
  });
  sim.RunUntil(sim.Now() + 3600 * kSecond);

  JobResult r;
  if (!finished) return r;
  for (SimTime t : job.map_completions()) {
    r.map_done_s.push_back(ToSeconds(t - job_start));
  }
  for (SimTime t : job.reduce_completions()) {
    r.reduce_done_s.push_back(ToSeconds(t - job_start));
  }
  r.total_s = ToSeconds(job.finish_time() - job_start);
  return r;
}

double PercentDoneAt(const std::vector<double>& done, double t) {
  if (done.empty()) return 0;
  std::size_t n = 0;
  while (n < done.size() && done[n] <= t) ++n;
  return 100.0 * static_cast<double>(n) / static_cast<double>(done.size());
}

}  // namespace

int main() {
  bench::PrintHeader(
      "fig9_mapreduce_failover — wordcount CDF with mid-job MDS failure",
      "Figure 9 (Section IV.D)");

  const std::uint64_t seed = bench::BenchSeed();
  std::printf("  running CFS-3A9S (failure at %lds)...\n",
              (long)(kFailAt / kSecond));
  JobResult cfs = RunCfs(seed, true);
  std::printf("  running Boom-FS (failure at %lds)...\n",
              (long)(kFailAt / kSecond));
  JobResult boom = RunBoom(seed, true);
  std::printf("  running CFS-3A9S (no failure, reference)...\n");
  JobResult cfs_ok = RunCfs(seed, false);

  std::printf("\nCDF of completed tasks over time (%% done):\n\n");
  metrics::Table table({"time (s)", "CFS map", "Boom map", "CFS reduce",
                        "Boom reduce", "CFS-nofail map"});
  const double horizon =
      std::max(cfs.total_s, boom.total_s) + 10.0;
  for (double t = 10; t <= horizon; t += 10) {
    table.AddRow({metrics::Table::Num(t, 0),
                  metrics::Table::Num(PercentDoneAt(cfs.map_done_s, t), 1),
                  metrics::Table::Num(PercentDoneAt(boom.map_done_s, t), 1),
                  metrics::Table::Num(PercentDoneAt(cfs.reduce_done_s, t), 1),
                  metrics::Table::Num(PercentDoneAt(boom.reduce_done_s, t), 1),
                  metrics::Table::Num(PercentDoneAt(cfs_ok.map_done_s, t), 1)});
  }
  table.Print();

  const double cfs_map_done =
      cfs.map_done_s.empty() ? 0 : cfs.map_done_s.back();
  const double boom_map_done =
      boom.map_done_s.empty() ? 0 : boom.map_done_s.back();
  std::printf("\nmap phase completion:    CFS %.1f s   Boom-FS %.1f s   "
              "(CFS faster by %.1f%%; paper: 28.13%%)\n",
              cfs_map_done, boom_map_done,
              100.0 * (boom_map_done - cfs_map_done) / boom_map_done);
  std::printf("job completion (reduce): CFS %.1f s   Boom-FS %.1f s   "
              "(CFS faster by %.1f%%; paper: 9.76%%)\n",
              cfs.total_s, boom.total_s,
              100.0 * (boom.total_s - cfs.total_s) / boom.total_s);
  std::printf("no-failure CFS reference: %.1f s\n", cfs_ok.total_s);
  return 0;
}
