// micro_scale — open-loop session-scale sweep on the load engine and the
// tiered event core.
//
// Drives 1k → 10k → 100k concurrent-capable sessions through one CFS
// replica group with open-loop (arrival-rate-driven) admission: each
// session arrives per the curve, runs a short read-heavy op program, and
// retires. Because arrivals never wait on completions, the sweep measures
// what the service (and the simulator substrate) sustain under fan-in the
// closed-loop figure benches cannot express. Also runs the 10k tier under
// a flash-crowd arrival curve to quantify tail-latency degradation, and
// replays the 1k tier to prove the whole stack deterministic (identical
// run digest for a fixed seed).
//
// Emits BENCH_scale.json (override the path with MAMS_BENCH_OUT).
//
// Environment knobs:
//   MAMS_BENCH_SEED  — base RNG seed (default 42)
//   MAMS_BENCH_OUT   — output JSON path (default BENCH_scale.json)
//   MAMS_SCALE_MAX   — largest tier to run (default 100000)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"

namespace {

using namespace mams;
using bench::BenchSeed;
using workload::ArrivalCurve;
using workload::ArrivalKind;
using workload::KeyDistSpec;
using workload::LoadEngine;
using workload::Mix;

constexpr int kDirs = 64;
constexpr int kFilesPerDir = 32;
constexpr std::uint32_t kOpsPerSession = 4;
constexpr double kRampSeconds = 4.0;  // arrival window per tier

Mix ScaleMix() {
  Mix mix;
  mix.getfileinfo = 0.90;
  mix.create = 0.10;
  return mix;
}

struct TierStats {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t peak_live = 0;
  double ops_per_sec = 0;          // virtual-time service throughput
  double sessions_per_wall_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_seconds = 0;
  std::uint64_t digest = 0;
  bool drained = false;
};

TierStats RunTier(std::uint64_t sessions, ArrivalKind kind,
                  std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = 1;
  cfg.clients = 4;
  cfg.data_servers = 2;
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  const auto paths = bench::PreloadPathsPerDir(kDirs, kFilesPerDir);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  const double rate = static_cast<double>(sessions) / kRampSeconds;
  LoadEngine::Options opt;
  opt.loop = LoadEngine::Loop::kOpen;
  opt.max_sessions = sessions;
  opt.ops_per_session = kOpsPerSession;
  opt.directories = kDirs;
  opt.files_per_dir = kFilesPerDir;
  opt.keys = KeyDistSpec::Zipf(0.99);
  switch (kind) {
    case ArrivalKind::kConstant:
      opt.arrival = ArrivalCurve::Constant(rate);
      break;
    case ArrivalKind::kDiurnal:
      opt.arrival = ArrivalCurve::Diurnal(rate, kRampSeconds);
      break;
    case ArrivalKind::kFlashCrowd: {
      // Same expected total arrivals over the ramp as the constant curve
      // (base·ramp + base·(mult-1)·burst = rate·ramp), concentrated into a
      // 1 s spike mid-window.
      const double base =
          rate * kRampSeconds / (kRampSeconds + (10.0 - 1.0) * 1.0);
      opt.arrival = ArrivalCurve::FlashCrowd(base, kRampSeconds / 2.0,
                                             /*burst_len_s=*/1.0,
                                             /*burst_mult=*/10.0);
      break;
    }
  }

  LoadEngine engine(sim, bench::MakeApis(cfs), ScaleMix(), seed, opt);

  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime start = sim.Now();
  const SimTime cap = start + static_cast<SimTime>(
                                  (kRampSeconds + 60.0) *
                                  static_cast<double>(kSecond));
  engine.Start();
  while (!engine.drained() && sim.Now() < cap) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  engine.Stop();
  const auto wall_end = std::chrono::steady_clock::now();

  TierStats st;
  st.sessions = sessions;
  st.completed = engine.completed();
  st.failed = engine.failed();
  st.peak_live = engine.peak_live_sessions();
  st.drained = engine.drained();
  st.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const double virt_secs = ToSeconds(sim.Now() - start);
  st.ops_per_sec =
      virt_secs > 0 ? static_cast<double>(st.completed) / virt_secs : 0;
  st.sessions_per_wall_sec =
      st.wall_seconds > 0
          ? static_cast<double>(engine.sessions_finished()) / st.wall_seconds
          : 0;
  st.p50_ms = ToMillis(engine.latencies().Quantile(0.50));
  st.p99_ms = ToMillis(engine.latencies().Quantile(0.99));
  st.digest = sim.run_digest();
  return st;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_scale — open-loop session sweep (load engine + event core)",
      "north star: heavy traffic from millions of users (ROADMAP item 4)");

  const std::uint64_t seed = BenchSeed();
  const auto max_tier =
      static_cast<std::uint64_t>(bench::EnvInt("MAMS_SCALE_MAX", 100'000));
  std::vector<std::uint64_t> tiers;
  for (std::uint64_t t : {1'000ull, 10'000ull, 100'000ull}) {
    if (t <= max_tier) tiers.push_back(t);
  }

  metrics::Table table({"sessions", "ops", "ops/s (virt)", "sessions/wall-s",
                        "p50 ms", "p99 ms", "wall s", "peak live"});
  std::vector<TierStats> stats;
  for (const std::uint64_t t : tiers) {
    const TierStats st = RunTier(t, ArrivalKind::kConstant, seed);
    stats.push_back(st);
    table.AddRow({std::to_string(st.sessions), std::to_string(st.completed),
                  std::to_string(st.ops_per_sec),
                  std::to_string(st.sessions_per_wall_sec),
                  std::to_string(st.p50_ms), std::to_string(st.p99_ms),
                  std::to_string(st.wall_seconds),
                  std::to_string(st.peak_live)});
  }
  table.Print();

  // Flash-crowd degradation at the 10k tier (falls back to the largest
  // tier actually run when MAMS_SCALE_MAX is lowered).
  const std::uint64_t flash_sessions =
      max_tier >= 10'000 ? 10'000 : tiers.back();
  const TierStats flat = RunTier(flash_sessions, ArrivalKind::kConstant, seed);
  const TierStats flash =
      RunTier(flash_sessions, ArrivalKind::kFlashCrowd, seed);
  const double degradation =
      flat.p99_ms > 0 ? flash.p99_ms / flat.p99_ms : 0.0;
  std::printf("\nflash crowd at %llu sessions: p99 %.3f ms vs %.3f ms "
              "constant (%.2fx)\n",
              static_cast<unsigned long long>(flash_sessions), flash.p99_ms,
              flat.p99_ms, degradation);

  // Determinism: replay the smallest tier with the same seed; the run
  // digest (an order-sensitive fold of every executed event) must match.
  const TierStats replay = RunTier(tiers.front(), ArrivalKind::kConstant, seed);
  const bool deterministic = replay.digest == stats.front().digest;
  std::printf("digest determinism at %llu sessions: %s\n",
              static_cast<unsigned long long>(tiers.front()),
              deterministic ? "ok" : "MISMATCH");

  const char* out_path = std::getenv("MAMS_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_scale.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"scale\": {\n"
               "    \"mix\": \"90%% getfileinfo / 10%% create\",\n"
               "    \"ops_per_session\": %u,\n"
               "    \"arrival\": \"constant over %.1f s ramp\",\n"
               "    \"tiers\": [\n",
               kOpsPerSession, kRampSeconds);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const TierStats& st = stats[i];
    std::fprintf(out,
                 "      {\"sessions\": %llu, \"ops\": %llu, "
                 "\"ops_per_sec\": %.1f, \"sessions_per_wall_sec\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"wall_seconds\": %.3f, \"peak_live\": %llu, "
                 "\"failed\": %llu, \"drained\": %s}%s\n",
                 static_cast<unsigned long long>(st.sessions),
                 static_cast<unsigned long long>(st.completed), st.ops_per_sec,
                 st.sessions_per_wall_sec, st.p50_ms, st.p99_ms,
                 st.wall_seconds,
                 static_cast<unsigned long long>(st.peak_live),
                 static_cast<unsigned long long>(st.failed),
                 st.drained ? "true" : "false",
                 i + 1 < stats.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n"
               "    \"flash_crowd\": {\"sessions\": %llu, "
               "\"constant_p99_ms\": %.3f, \"flash_p99_ms\": %.3f, "
               "\"p99_degradation\": %.3f},\n"
               "    \"digest_deterministic\": %s\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(flash_sessions), flat.p99_ms,
               flash.p99_ms, degradation, deterministic ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return deterministic ? 0 : 1;
}
