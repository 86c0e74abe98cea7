// Transparent failover for upper applications (the paper's Section IV.D):
// run a simulated wordcount job against CFS, once cleanly and once with
// the active metadata server crashing mid-job. The job finishes both
// times; the failure costs only the failover window.
#include <cstdio>

#include "cluster/cfs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "workload/mapreduce.hpp"

using namespace mams;

namespace {

double RunJob(bool inject_failure) {
  sim::Simulator sim(31);
  net::Network network(sim);
  cluster::CfsConfig config;
  config.groups = 3;
  config.standbys_per_group = 3;  // the paper's 3A9S
  config.clients = 1;
  config.data_servers = 4;
  cluster::CfsCluster cfs(network, config);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  workload::MapReduceJob::Options opts;
  opts.input_bytes = 5ull << 30;  // the paper's 5 GB wordcount input
  workload::MapReduceJob job(sim, workload::MakeApi(cfs.client(0)), opts, 17);

  bool finished = false;
  SimTime start = 0;
  job.Setup([&] {
    start = sim.Now();
    std::printf("  job started: %d map tasks, %d reduce tasks\n",
                job.map_tasks(), 10);
    job.Run([&] { finished = true; });
    if (inject_failure) {
      sim.After(30 * kSecond, [&cfs] {
        std::printf("  >> active of group 0 crashes at t+30s\n");
        cfs.faults().CrashActive(0);
      });
    }
  });
  while (!finished) sim.RunUntil(sim.Now() + kSecond);
  const double total = ToSeconds(sim.Now() - start);
  std::printf("  maps done at %.1fs, job done at %.1fs\n",
              ToSeconds(job.map_completions().back() - start), total);
  return total;
}

}  // namespace

int main() {
  std::printf("wordcount on CFS 3A9S, no failures:\n");
  const double clean = RunJob(false);

  std::printf("\nwordcount on CFS 3A9S, active crash mid-job:\n");
  const double faulty = RunJob(true);

  std::printf("\ncompletion: clean %.1fs vs failure %.1fs (overhead %.1f%%)\n",
              clean, faulty, 100.0 * (faulty - clean) / clean);
  std::printf("The job itself never saw an error: the client library rode "
              "out the failover.\n");
  return 0;
}
