// Table I — "MTTR of different reliable metadata management systems".
//
// For image sizes 16 MB .. 1024 MB, crash the primary metadata server
// under client load and measure MTTR at the client: the gap between the
// first operation that returns failure and the first that returns success
// (Section IV.B's formula), averaged over MAMS_BENCH_TRIALS trials.
//
// Expected shape: MAMS-1A3S flat around the 5 s session timeout (+ election
// + switch + reconnect); BackupNode grows linearly with image size (block
// recollection); Avatar flat ~27-33 s; Hadoop HA flat ~15-19 s.
//
// Image scaling: the paper's 1 GB image holds ~7 M files. Materializing
// 7 M inodes per replica is pointless for timing (MAMS failover never
// reads the image), so MAMS trials preload a fixed modest namespace and
// BackupNode trials carry the scale where it matters — the synthetic block
// count its recollection must re-ingest (see DESIGN.md substitutions).
#include <memory>

#include "baselines/systems.hpp"
#include "bench_common.hpp"
#include "cluster/cfs.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using workload::Mix;
using workload::OpKind;

constexpr SimTime kKillAt = 4 * kSecond;
constexpr SimTime kTrialCap = 500 * kSecond;

/// Drives fail-fast load, kills via `kill`, returns MTTR seconds.
template <typename MakeApiFn, typename KillFn>
double MeasureMttr(sim::Simulator& sim, MakeApiFn make_api, KillFn kill,
                   std::uint64_t seed) {
  workload::LoadEngine::Options opts;
  opts.loop = workload::LoadEngine::Loop::kClosed;
  opts.sessions = 2;
  workload::LoadEngine driver(sim, make_api(), Mix::Only(OpKind::kCreate),
                              seed, opts);
  driver.Start();
  sim.RunUntil(sim.Now() + kKillAt);
  kill();
  const SimTime deadline = sim.Now() + kTrialCap;
  while (!driver.mttr_probe().complete() && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + 250 * kMillisecond);
  }
  driver.Stop();
  if (!driver.mttr_probe().complete()) return -1.0;
  return ToSeconds(driver.mttr_probe().mttr());
}

double MamsTrial(int image_mb, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 3;  // MAMS-1A3S
  cfg.clients = 2;
  cfg.data_servers = 2;
  cfg.client.max_attempts = 1;  // ops *return* failure during the outage
  cfg.client.rpc_timeout = kSecond;
  // Scale the image logically (recovery paths charge by logical size).
  cfg.mds.image_inflation = static_cast<double>(image_mb) * (1 << 20) / 3.0e6;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);
  auto paths = bench::PreloadPaths(20'000);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& t) { bench::PreloadTree(t, paths); });

  return MeasureMttr(
      sim, [&] { return workload::MakeApi(cfs.client(0)); },
      [&] { cfs.faults().CrashActive(0); },
      seed);
}

double BackupTrial(int image_mb, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::BackupNodeSystem::Options opts;
  opts.clients = 2;
  opts.total_blocks = bench::BlocksForImageMb(image_mb);
  opts.client.max_attempts = 1;
  opts.client.rpc_timeout = kSecond;
  baselines::BackupNodeSystem sys(net, opts);
  sim.RunUntil(sim.Now() + kSecond);
  return MeasureMttr(
      sim, [&] { return workload::MakeApi(sys.client(0)); },
      [&] { sys.KillPrimary(); }, seed);
}

double AvatarTrial(int image_mb, std::uint64_t seed) {
  (void)image_mb;  // flat: dual block reports + shared edits keep it warm
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::SharedEditsSystem::Options opts;
  opts.clients = 2;
  opts.client.max_attempts = 1;
  opts.client.rpc_timeout = kSecond;
  baselines::SharedEditsSystem sys(net, baselines::kAvatar, opts);
  sim.RunUntil(sim.Now() + kSecond);
  return MeasureMttr(
      sim, [&] { return workload::MakeApi(sys.client(0)); },
      [&] { sys.KillPrimary(); }, seed);
}

double HadoopHaTrial(int image_mb, std::uint64_t seed) {
  (void)image_mb;  // flat: standby tails the quorum journal continuously
  sim::Simulator sim(seed);
  net::Network net(sim);
  baselines::SharedEditsSystem::Options opts;
  opts.clients = 2;
  opts.client.max_attempts = 1;
  opts.client.rpc_timeout = kSecond;
  baselines::SharedEditsSystem sys(net, baselines::kHadoopHa, opts);
  sim.RunUntil(sim.Now() + kSecond);
  return MeasureMttr(
      sim, [&] { return workload::MakeApi(sys.client(0)); },
      [&] { sys.KillPrimary(); }, seed);
}

}  // namespace

int main() {
  bench::PrintHeader("table1_mttr — MTTR vs image size across systems",
                     "Table I (Section IV.B)");
  const int trials = bench::BenchTrials();
  const int sizes[] = {16, 32, 64, 128, 256, 512, 1024};

  metrics::Table table({"Image (MB)", "MAMS-1A3S", "BackupNode",
                        "Hadoop Avatar", "Hadoop HA"});
  // Paper row for comparison printed alongside.
  const double paper[7][4] = {
      {5.893, 2.784, 27.362, 15.351},  {6.376, 5.326, 31.574, 17.439},
      {6.531, 9.653, 30.721, 18.624},  {5.742, 22.928, 29.273, 16.372},
      {5.436, 36.431, 32.805, 19.016}, {6.795, 78.365, 31.446, 17.853},
      {6.081, 142.513, 33.239, 19.193}};

  double sum[4] = {0, 0, 0, 0};
  double paper_sum[4] = {0, 0, 0, 0};
  int row_idx = 0;
  for (int mb : sizes) {
    metrics::Accumulator acc[4];
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = bench::BenchSeed() + 1000ull * t + mb;
      const double samples[4] = {
          MamsTrial(mb, seed), BackupTrial(mb, seed), AvatarTrial(mb, seed),
          HadoopHaTrial(mb, seed)};
      for (int s = 0; s < 4; ++s) {
        if (samples[s] >= 0) acc[s].Record(samples[s]);  // -1 = no recovery
      }
    }
    std::vector<std::string> row{std::to_string(mb)};
    for (int s = 0; s < 4; ++s) {
      row.push_back(metrics::Table::Num(acc[s].mean(), 3));
      sum[s] += acc[s].mean();
      paper_sum[s] += paper[row_idx][s];
    }
    table.AddRow(std::move(row));
    std::printf("  ... %d MB done\n", mb);
    ++row_idx;
  }

  std::printf("\nMTTR (s), mean of %d trials per cell:\n\n", trials);
  table.Print();

  std::printf("\nPaper (Table I) for reference:\n");
  metrics::Table ref({"Image (MB)", "MAMS-1A3S", "BackupNode",
                      "Hadoop Avatar", "Hadoop HA"});
  for (int i = 0; i < 7; ++i) {
    ref.AddRow({std::to_string(sizes[i]), metrics::Table::Num(paper[i][0], 3),
                metrics::Table::Num(paper[i][1], 3),
                metrics::Table::Num(paper[i][2], 3),
                metrics::Table::Num(paper[i][3], 3)});
  }
  ref.Print();

  std::printf(
      "\nAverage MAMS MTTR as %% of each baseline (paper: BackupNode 14.35%%, "
      "Avatar 19.77%%, HA 34.54%%):\n");
  const char* names[] = {"", "BackupNode", "Hadoop Avatar", "Hadoop HA"};
  for (int s = 1; s < 4; ++s) {
    std::printf("  vs %-14s measured %6.2f%%   (paper %6.2f%%)\n", names[s],
                100.0 * sum[0] / sum[s], 100.0 * paper_sum[0] / paper_sum[s]);
  }

  const int rows = 7;
  const char* out_path = std::getenv("MAMS_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_mttr.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"mttr\": {\n"
               "    \"trials\": %d,\n"
               "    \"mams_avg_s\": %.3f,\n"
               "    \"backupnode_avg_s\": %.3f,\n"
               "    \"avatar_avg_s\": %.3f,\n"
               "    \"hadoop_ha_avg_s\": %.3f,\n"
               "    \"mams_pct_of_backupnode\": %.2f,\n"
               "    \"mams_pct_of_avatar\": %.2f,\n"
               "    \"mams_pct_of_hadoop_ha\": %.2f\n"
               "  }\n"
               "}\n",
               trials, sum[0] / rows, sum[1] / rows, sum[2] / rows,
               sum[3] / rows, 100.0 * sum[0] / sum[1],
               100.0 * sum[0] / sum[2], 100.0 * sum[0] / sum[3]);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
