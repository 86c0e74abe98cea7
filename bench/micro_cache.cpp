// micro_cache — read throughput with the client-side lease-protected
// namespace cache, against standby read offload at equal fan-in.
//
// A single replica group under a skewed read-dominant workload (repeat
// stats of a small hot file set, with a trickle of creates and addblocks
// so leases are continuously revoked and re-granted). Three configs at
// identical closed-loop fan-in:
//   * active-only   — every read lands on the active
//   * offload       — session-consistent standby read offload
//   * cache         — the lease-protected client cache (active routing:
//                     only the active grants leases; repeat reads under a
//                     live lease never leave the client)
// The cache rows must clear 2x the offload-only rows — locally-served
// hits cost a cache lookup, not a network round trip — and the run then
// proves the hits were honest. The sample is spread over the preloaded
// names, plus every name the mutation trickle created or add-blocked.
// Each sampled path is read through the cache first as the window left
// its line (patched in place by the trickle, or expired), then again
// after a populating read, and each read is compared, field by field,
// with another client's require_active read (the active's authoritative
// answer): every view must be identical.
//
// A separate phase runs the cache config alone on one hot directory of
// 2,500 children, past one lease fill page (core::ReadService::
// kMaxFillChildren), so clients hold it one page at a time. Its hit rate
// must stay at or above 0.5, and its equivalence sample reads names from
// every page, plus absent names that sort into each.
//
// Emits BENCH_cache.json (override the path with MAMS_BENCH_OUT). Exits
// nonzero when the speedup, hit-rate, or cached==uncached assertions
// fail, so CI can gate on it.
//
// Environment knobs:
//   MAMS_BENCH_SECONDS — measured window per run (default 6)
//   MAMS_BENCH_SEED    — base RNG seed (default 42)
//   MAMS_BENCH_OUT     — output JSON path (default BENCH_cache.json)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "metrics/table.hpp"
#include "net/network.hpp"
#include "workload/client_api.hpp"

namespace {

using namespace mams;
using bench::BenchSeconds;
using bench::BenchSeed;
using workload::Mix;

constexpr int kHotDirs = 16;
constexpr int kFilesPerDir = 4;  // 64 hot files — one per session
constexpr int kBigDirFiles = 2500;  ///< three lease fill pages
constexpr std::size_t kSampleSize = 64;
constexpr int kClients = 4;
constexpr int kSessions = 64;  ///< total closed-loop fan-in, all configs
constexpr int kStandbys = 3;

Mix HotReadMix() {
  // Repeat stats dominate; a thin trickle of creates and addblocks keeps
  // revocations (and session sn tokens) moving so the cache is exercised
  // under churn, not in a mutation-free vacuum. The trickle must stay
  // thin: every acked mutation anywhere in the group raises applied_sn,
  // and the next miss on any client lifts its session token past every
  // older cached entry — session consistency makes mutations group-wide
  // cache flushes, so hundreds per second is already heavy churn.
  Mix mix;
  mix.getfileinfo = 0.9795;
  mix.listdir = 0.02;
  mix.create = 0.0002;
  mix.add_block = 0.0003;
  return mix;
}

enum class Config { kActiveOnly, kOffload, kCache };

struct RunStats {
  double ops_per_sec = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_revocations = 0;
  double hit_rate = 0;
  bool equivalent = true;      ///< cache-served == require_active views
  std::size_t sampled = 0;         ///< equivalence reads
  std::uint64_t sampled_hits = 0;  ///< equivalence reads served from cache
  std::size_t mutated = 0;         ///< sampled names the trickle changed
  std::uint64_t window_hits = 0;   ///< hits on the lines the window left
};

/// About kSampleSize of `paths`, spread evenly in name order (the order
/// lease fill pages hold them), and after every eighth an absent name that
/// sorts right behind it.
std::vector<std::string> EquivalenceSample(std::vector<std::string> paths) {
  std::sort(paths.begin(), paths.end());
  const std::size_t stride = (paths.size() + kSampleSize - 1) / kSampleSize;
  std::vector<std::string> sample;
  for (std::size_t i = 0; i < paths.size(); i += stride) {
    sample.push_back(paths[i]);
    if (i % (8 * stride) == 0) sample.push_back(paths[i] + "!");
  }
  return sample;
}

/// Every child of `paths`' directories that the mutation trickle created
/// or add-blocked: the preload stamps each file with mtime 0.
std::vector<std::string> MutatedPaths(const fsns::Tree& tree,
                                      const std::vector<std::string>& paths) {
  std::set<std::string> dirs;
  for (const std::string& p : paths) dirs.insert(fsns::ParentPath(p));
  std::vector<std::string> mutated;
  for (const std::string& dir : dirs) {
    const fsns::Inode* node = tree.FindInode(dir);
    if (node == nullptr) continue;
    for (const fsns::Inode* child : tree.SortedChildren(*node)) {
      if (child->mtime != 0)
        mutated.push_back(fsns::JoinPath(dir, child->name));
    }
  }
  return mutated;
}

/// Whether a cached read answered exactly as the active did: the same
/// status and, when found, every FileInfo field.
bool SameView(const Result<fsns::FileInfo>& cached,
              const Result<fsns::FileInfo>& truth) {
  if (cached.status().code() != truth.status().code()) return false;
  if (!cached.ok()) return true;
  const fsns::FileInfo& a = cached.value();
  const fsns::FileInfo& b = truth.value();
  return std::tie(a.path, a.is_dir, a.replication, a.permission, a.owner,
                  a.mtime, a.block_count, a.complete) ==
         std::tie(b.path, b.is_dir, b.replication, b.permission, b.owner,
                  b.mtime, b.block_count, b.complete);
}

/// One synchronous GetFileInfo through `client`.
Result<fsns::FileInfo> StatSync(sim::Simulator& sim,
                                cluster::FsClient& client,
                                const std::string& path, bool require_active) {
  Result<fsns::FileInfo> out = Status::TimedOut("no reply");
  bool done = false;
  client.GetFileInfo(
      path,
      [&](Result<fsns::FileInfo> r) {
        out = std::move(r);
        done = true;
      },
      cluster::ReadOptions{.require_active = require_active});
  const SimTime deadline = sim.Now() + 30 * kSecond;
  while (!done && sim.Now() < deadline && sim.Step()) {
  }
  return out;
}

RunStats RunOnce(Config config, std::uint64_t seed, int dirs,
                 int files_per_dir) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  cluster::CfsConfig cfg;
  cfg.groups = 1;
  cfg.standbys_per_group = kStandbys;
  cfg.clients = kClients;
  cfg.data_servers = 2;
  if (config == Config::kOffload) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  if (config == Config::kCache) {
    // Leases are granted by the active only (the node that serializes the
    // conflicting mutations), so the cache config keeps active routing:
    // misses go to the active and come back lease-protected, hits never
    // leave the client. The cache substitutes for offload, not on top.
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
  }
  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  sim.RunUntil(sim.Now() + kSecond);

  auto paths = bench::PreloadPathsPerDir(dirs, files_per_dir);
  cfs.PreloadGroup(0, [&paths](fsns::Tree& tree) {
    bench::PreloadTree(tree, paths);
  });

  workload::LoadEngineOptions opts;
  opts.loop = workload::LoadEngineOptions::Loop::kClosed;
  opts.sessions = kSessions;
  opts.seed_files = &paths;
  workload::LoadEngine engine(sim, bench::MakeApis(cfs), HotReadMix(),
                              seed * 7 + 1, opts);
  engine.Start();
  sim.RunUntil(sim.Now() + BenchSeconds() * kSecond);
  engine.Stop();
  sim.RunUntil(sim.Now() + kSecond);  // drain in-flight ops

  RunStats stats;
  stats.ops_per_sec = bench::SteadyThroughput(engine.rate());
  for (int c = 0; c < kClients; ++c) {
    const auto& cc = cfs.client(c).counters();
    stats.cache_hits += cc.cache_hits;
    stats.cache_misses += cc.cache_misses;
    stats.cache_revocations += cc.cache_revocations;
  }
  const std::uint64_t looked = stats.cache_hits + stats.cache_misses;
  stats.hit_rate = looked > 0
                       ? static_cast<double>(stats.cache_hits) /
                             static_cast<double>(looked)
                       : 0.0;

  // cached == uncached, with the workload quiesced. Each sampled path is
  // read through the cache as the window left its line, before any
  // populating read, and then once more after one (a hit under a fresh
  // lease); another client's require_active read, which leaves client 0's
  // lines alone, gives the active's authoritative view for each.
  if (config == Config::kCache) {
    cluster::FsClient& client = cfs.client(0);
    cluster::FsClient& auditor = cfs.client(1);
    std::vector<std::string> sample = EquivalenceSample(paths);
    const std::vector<std::string> mutated =
        MutatedPaths(cfs.FindActive(0)->tree(), paths);
    stats.mutated = mutated.size();
    sample.insert(sample.end(), mutated.begin(), mutated.end());
    auto compare = [&](const std::string& p, bool window) {
      const Result<fsns::FileInfo> cached = StatSync(sim, client, p, false);
      const bool hit = client.last_stamp().via_cache;
      ++stats.sampled;
      stats.sampled_hits += hit;
      if (window) stats.window_hits += hit;
      const Result<fsns::FileInfo> truth = StatSync(sim, auditor, p, true);
      if (cached.status().code() == StatusCode::kTimedOut ||
          !SameView(cached, truth)) {
        std::fprintf(stderr, "cached view of %s diverges from active\n",
                     p.c_str());
        stats.equivalent = false;
      }
    };
    for (const std::string& p : sample) compare(p, /*window=*/true);
    for (const std::string& p : sample) {
      (void)StatSync(sim, client, p, false);  // populate
      compare(p, /*window=*/false);
    }
  }
  return stats;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_cache — lease-protected client cache vs standby offload",
      "client-side namespace caching under directory leases");

  const RunStats base =
      RunOnce(Config::kActiveOnly, BenchSeed(), kHotDirs, kFilesPerDir);
  const RunStats off =
      RunOnce(Config::kOffload, BenchSeed(), kHotDirs, kFilesPerDir);
  const RunStats cache =
      RunOnce(Config::kCache, BenchSeed(), kHotDirs, kFilesPerDir);
  const RunStats big = RunOnce(Config::kCache, BenchSeed(), 1, kBigDirFiles);

  metrics::Table table({"config", "op/s", "hits", "misses", "revoked",
                        "hit rate"});
  table.AddRow({"active-only", std::to_string(base.ops_per_sec), "-", "-",
                "-", "-"});
  table.AddRow({"offload", std::to_string(off.ops_per_sec), "-", "-", "-",
                "-"});
  table.AddRow({"cache", std::to_string(cache.ops_per_sec),
                std::to_string(cache.cache_hits),
                std::to_string(cache.cache_misses),
                std::to_string(cache.cache_revocations),
                std::to_string(cache.hit_rate)});
  table.AddRow({"cache, one dir of " + std::to_string(kBigDirFiles),
                std::to_string(big.ops_per_sec),
                std::to_string(big.cache_hits),
                std::to_string(big.cache_misses),
                std::to_string(big.cache_revocations),
                std::to_string(big.hit_rate)});
  table.Print();

  const double vs_offload =
      off.ops_per_sec > 0 ? cache.ops_per_sec / off.ops_per_sec : 0.0;
  const double vs_active =
      base.ops_per_sec > 0 ? cache.ops_per_sec / base.ops_per_sec : 0.0;
  std::printf("\ncache speedup: %.2fx vs offload, %.2fx vs active-only\n",
              vs_offload, vs_active);
  for (const RunStats* run : {&cache, &big}) {
    std::printf(
        "equivalence sample%s: %llu/%zu cache-served (%llu on the lines "
        "the window left), %zu names the trickle changed, %s\n",
        run == &big ? " (one large directory)" : "",
        static_cast<unsigned long long>(run->sampled_hits), run->sampled,
        static_cast<unsigned long long>(run->window_hits), run->mutated,
        run->equivalent ? "all views identical" : "DIVERGED");
  }

  const char* out_path = std::getenv("MAMS_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_cache.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"cache\": {\n"
               "    \"mix\": \"92%% getfileinfo / 3%% listdir / 2%% create / "
               "3%% addblock\",\n"
               "    \"sessions\": %d,\n"
               "    \"standbys\": %d,\n"
               "    \"active_only_ops_per_sec\": %.1f,\n"
               "    \"offload_ops_per_sec\": %.1f,\n"
               "    \"cache_ops_per_sec\": %.1f,\n"
               "    \"speedup_cache_vs_offload\": %.3f,\n"
               "    \"speedup_cache_vs_active_only\": %.3f,\n"
               "    \"hit_rate\": %.4f,\n"
               "    \"revocations\": %llu,\n"
               "    \"equivalence_ok\": %s,\n"
               "    \"big_dir_children\": %d,\n"
               "    \"big_dir_ops_per_sec\": %.1f,\n"
               "    \"big_dir_hit_rate\": %.4f,\n"
               "    \"big_dir_equivalence_ok\": %s\n"
               "  }\n"
               "}\n",
               kSessions, kStandbys, base.ops_per_sec, off.ops_per_sec,
               cache.ops_per_sec, vs_offload, vs_active, cache.hit_rate,
               static_cast<unsigned long long>(cache.cache_revocations),
               cache.equivalent ? "true" : "false", kBigDirFiles,
               big.ops_per_sec, big.hit_rate,
               big.equivalent ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  // Gate: the cache must actually pay for itself and must never lie.
  if (!cache.equivalent || !big.equivalent) {
    std::fprintf(stderr, "FAIL: cached views diverged from the active\n");
    return 1;
  }
  if (cache.sampled_hits == 0 || big.sampled_hits == 0) {
    std::fprintf(stderr, "FAIL: equivalence sample never hit the cache\n");
    return 1;
  }
  if (vs_offload < 2.0) {
    std::fprintf(stderr, "FAIL: cache speedup %.2fx < 2x over offload\n",
                 vs_offload);
    return 1;
  }
  if (cache.hit_rate < 0.5) {
    std::fprintf(stderr, "FAIL: hit rate %.2f < 0.5\n", cache.hit_rate);
    return 1;
  }
  if (big.hit_rate < 0.5) {
    std::fprintf(stderr, "FAIL: large-directory hit rate %.2f < 0.5\n",
                 big.hit_rate);
    return 1;
  }
  return 0;
}
