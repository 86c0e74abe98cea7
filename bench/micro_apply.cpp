// micro_apply — serial journal replay and group commit.
//
// Part 1 (replay): drive a create/add_block-heavy workload through a single
// replica group so the SSP accumulates a journal of multi-record batches,
// then rebuild the namespace offline with one RecoveryTool::RebuildAt. The
// rebuild is real work on this machine, so its wall-clock record rate is a
// measurement, not a model; the rebuilt tree must equal the live active's.
//
// Part 2 (group commit): the same workload on a 2 ms link, where the
// active seals a batch whenever one of its four 2PC window slots is free.
// Closed-loop client throughput is what the sealing rule buys.
//
// Emits BENCH_apply.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SECONDS — measured window per run (default 6)
//   MAMS_BENCH_SEED    — base RNG seed (default 42)
//   MAMS_BENCH_OUT     — output JSON path (default BENCH_apply.json)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/recovery.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using bench::BenchSeconds;
using bench::BenchSeed;
using workload::Mix;

constexpr int kClients = 4;
constexpr int kSessionsPerClient = 8;

Mix CreateHeavyMix() {
  Mix mix;
  mix.create = 0.70;
  mix.add_block = 0.20;
  mix.getfileinfo = 0.10;
  return mix;
}

struct ClusterRun {
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<cluster::CfsCluster> cfs;
  double ops_per_sec = 0;
  std::uint64_t batches_after_wait = 0;

  explicit ClusterRun(std::uint64_t seed, net::LinkParams link = {})
      : sim(seed), net(sim, link) {
    cluster::CfsConfig cfg;
    cfg.groups = 1;
    cfg.standbys_per_group = 2;
    cfg.clients = kClients;
    cfg.data_servers = 2;
    // No checkpoint during the run: the offline rebuild replays the whole
    // journal from an empty tree, which is the interesting (worst) case.
    cfg.mds.checkpoint_interval = 3600 * kSecond;
    cfs = std::make_unique<cluster::CfsCluster>(net, cfg);
    cfs->Start();
    sim.RunUntil(sim.Now() + kSecond);

    std::vector<std::unique_ptr<workload::LoadEngine>> drivers;
    for (int c = 0; c < kClients; ++c) {
      workload::LoadEngine::Options opts;
      opts.loop = workload::LoadEngine::Loop::kClosed;
      opts.sessions = kSessionsPerClient;
      drivers.push_back(std::make_unique<workload::LoadEngine>(
          sim, workload::MakeApi(cfs->client(c)), CreateHeavyMix(),
          seed * 7 + c, opts));
      drivers.back()->Start();
    }
    sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
    for (auto& d : drivers) {
      d->Stop();
      ops_per_sec += bench::SteadyThroughput(d->rate());
    }
    sim.RunUntil(sim.Now() + 2 * kSecond);  // drain the commit window
    if (auto* active = cfs->FindActive(0)) {
      batches_after_wait = active->counters().pipeline_deferred;
    }
  }

  /// A pool node holding the group journal replica.
  const storage::FileStore& JournalStore() const {
    for (int p = 0; p < 3; ++p) {
      const auto& store = cfs->pool_node(p).store();
      if (store.Exists("g0/journal")) return store;
    }
    return cfs->pool_node(0).store();
  }
};

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_apply — serial journal replay + group commit",
      "offline RebuildAt and group-commit 2PC");

  // --- Part 1: offline serial replay --------------------------------------
  // 32 closed-loop sessions overfill the commit window, so group commit
  // aggregates multi-record batches — the shape a busy active journals.
  ClusterRun corpus(BenchSeed());
  const auto& store = corpus.JournalStore();
  const TxId latest = core::RecoveryTool::LatestRecoverableTxid(store, 0);

  core::RecoveryReport report;
  const auto wall0 = std::chrono::steady_clock::now();
  auto rebuilt = core::RecoveryTool::RebuildAt(store, 0, latest, &report);
  const double replay_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "rebuild failed: %s\n",
                 rebuilt.status().ToString().c_str());
    return 1;
  }
  const auto* live = corpus.cfs->FindActive(0);
  const bool matches_live =
      live != nullptr &&
      rebuilt.value().Fingerprint() == live->tree().Fingerprint();
  const double records_per_batch =
      report.batches_replayed > 0
          ? static_cast<double>(report.records_replayed) /
                static_cast<double>(report.batches_replayed)
          : 0.0;
  const double replay_records_per_s =
      replay_wall_s > 0
          ? static_cast<double>(report.records_replayed) / replay_wall_s
          : 0.0;

  metrics::Table replay(
      {"records", "batches", "rec/batch", "wall ms", "records/s"});
  replay.AddRow({std::to_string(report.records_replayed),
                 std::to_string(report.batches_replayed),
                 metrics::Table::Num(records_per_batch, 1),
                 metrics::Table::Num(replay_wall_s * 1e3, 1),
                 metrics::Table::Num(replay_records_per_s, 0)});
  replay.Print();
  std::printf("rebuilt tree %s live active\n",
              matches_live ? "matches" : "DIVERGES FROM");

  // --- Part 2: group commit on a 2 ms link --------------------------------
  // Overlapping rounds hides replication latency, so measure where that
  // latency is worth hiding: replicas a couple of milliseconds apart
  // (cross-rack / cross-AZ).
  net::LinkParams wan;
  wan.base_latency = 2 * kMillisecond;
  wan.jitter = 200 * kMicrosecond;
  ClusterRun commit_run(BenchSeed() + 101, wan);

  metrics::Table commit({"link", "op/s", "batches sealed after a wait"});
  commit.AddRow({"2 ms", metrics::Table::Num(commit_run.ops_per_sec, 1),
                 std::to_string(commit_run.batches_after_wait)});
  commit.Print();

  const char* out_path = std::getenv("MAMS_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_apply.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"apply\": {\n"
               "    \"mix\": \"70%% create / 20%% add_block / 10%% "
               "getfileinfo\",\n"
               "    \"records_replayed\": %llu,\n"
               "    \"batches_replayed\": %llu,\n"
               "    \"records_per_batch\": %.2f,\n"
               "    \"replay_wall_ms\": %.1f,\n"
               "    \"replay_records_per_s\": %.0f,\n"
               "    \"rebuild_matches_live_active\": %s,\n"
               "    \"commit_2ms_ops_per_sec\": %.1f\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(report.records_replayed),
               static_cast<unsigned long long>(report.batches_replayed),
               records_per_batch, replay_wall_s * 1e3, replay_records_per_s,
               matches_live ? "true" : "false", commit_run.ops_per_sec);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return matches_live ? 0 : 1;
}
