// micro_namespace — namespace hot-path microbenchmark (resolve / create /
// list / rename) plus the heap cost of a file, measuring the fsns::Tree
// directly with wall-clock time (no simulator in the loop). bytes_per_file
// is the live-heap growth (HeapBytes: glibc's in-use arena bytes plus its
// mmapped blocks) across populating the namespace, divided by the file
// count: the inode's slot, its entry in the id index and its entry in the
// parent's child index. churn_bytes_per_round is the heap growth per round
// of creating and deleting the same names once the first round has run;
// a namespace whose memory follows its live inodes reports about 0.
//
// Emits BENCH_namespace.json (override the path with MAMS_BENCH_OUT) and a
// human-readable summary on stdout.
//
// Environment knobs:
//   MAMS_BENCH_OUT        — output JSON path (default BENCH_namespace.json)
//   MAMS_NS_DEPTH         — directory depth of the namespace (default 8)
//   MAMS_NS_DIRS          — leaf directories (default 64)
//   MAMS_NS_FILES_PER_DIR — files per leaf directory (default 256)
//   MAMS_NS_RESOLVE_OPS   — resolve ops per mode (default 2,000,000)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fsns/path.hpp"
#include "fsns/tree.hpp"

namespace {

using mams::fsns::Inode;
using mams::fsns::Tree;

/// The journal record of an anonymous client rename.
mams::journal::LogRecord RenameRecord(const std::string& src,
                                      const std::string& dst,
                                      mams::SimTime mtime) {
  mams::journal::LogRecord rec;
  rec.op = mams::journal::OpCode::kRename;
  rec.path = src;
  rec.path2 = dst;
  rec.mtime = mtime;
  return rec;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Bytes glibc has handed out: arena chunks in use plus mmapped blocks,
/// which large allocations (a big table or chunk) get instead of arena
/// space. Counting only the arena would let a layout built on large arrays
/// hide from the measurement.
std::size_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds the deep namespace and returns every file path. Layout:
/// /bench/p0/p1/.../p{depth-3}/d{k}/f{i} — `depth` directory levels
/// between the root and each file.
std::vector<std::string> BuildPaths(int depth, int dirs, int files_per_dir) {
  std::string spine = "/bench";
  for (int level = 0; level + 2 < depth; ++level) {
    spine += "/p" + std::to_string(level);
  }
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(dirs) *
                static_cast<std::size_t>(files_per_dir));
  for (int k = 0; k < dirs; ++k) {
    const std::string dir = spine + "/d" + std::to_string(k);
    for (int i = 0; i < files_per_dir; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
    }
  }
  return paths;
}

void Populate(Tree& tree, const std::vector<std::string>& paths) {
  for (const auto& p : paths) {
    mams::ClientOpId none{};
    if (!tree.Create(p, 3, 0, none).ok()) {
      std::fprintf(stderr, "populate failed at %s\n", p.c_str());
      std::exit(1);
    }
  }
}

/// One round of the churn phase: create `names`, then delete each again.
void ChurnRound(Tree& tree, const std::vector<std::string>& names) {
  Populate(tree, names);
  for (const auto& p : names) {
    mams::journal::LogRecord rec;
    rec.op = mams::journal::OpCode::kDelete;
    rec.path = p;
    if (!tree.Execute(std::move(rec)).ok()) {
      std::fprintf(stderr, "churn delete failed at %s\n", p.c_str());
      std::exit(1);
    }
  }
}

struct Throughput {
  double ops_per_sec = 0;
  std::uint64_t checksum = 0;  ///< defeats dead-code elimination
};

template <typename Fn>
Throughput Measure(std::uint64_t ops, Fn&& op) {
  Throughput t;
  const double begin = Now();
  for (std::uint64_t i = 0; i < ops; ++i) t.checksum += op(i);
  const double elapsed = Now() - begin;
  t.ops_per_sec = elapsed > 0 ? static_cast<double>(ops) / elapsed : 0;
  return t;
}

}  // namespace

int main() {
  const int depth = EnvInt("MAMS_NS_DEPTH", 8);
  const int dirs = EnvInt("MAMS_NS_DIRS", 64);
  const int files_per_dir = EnvInt("MAMS_NS_FILES_PER_DIR", 256);
  const auto resolve_ops = static_cast<std::uint64_t>(
      EnvInt("MAMS_NS_RESOLVE_OPS", 2'000'000));
  const std::vector<std::string> paths = BuildPaths(depth, dirs, files_per_dir);

  std::printf("micro_namespace: depth=%d dirs=%d files=%zu resolve_ops=%" PRIu64
              "\n",
              depth, dirs, paths.size(), resolve_ops);

  // Pre-shuffled lookup order (deterministic), shared by every resolve mode.
  std::vector<std::uint32_t> order(paths.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  mams::Rng rng(42);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  auto pick = [&](std::uint64_t i) -> const std::string& {
    return paths[order[i % order.size()]];
  };

  // --- create (and the heap it leaves behind) -------------------------------
  Tree tree;
  double create_ops_per_sec = 0;
  double bytes_per_file = 0;
  {
    const std::size_t heap_before = HeapBytes();
    const double begin = Now();
    Populate(tree, paths);
    const double elapsed = Now() - begin;
    const std::size_t heap_after = HeapBytes();
    create_ops_per_sec =
        elapsed > 0 ? static_cast<double>(paths.size()) / elapsed : 0;
    bytes_per_file = static_cast<double>(heap_after - heap_before) /
                     static_cast<double>(paths.size());
  }

  // --- resolve: child-index walk ---------------------------------------------
  auto resolve_once = [&](std::uint64_t i) -> std::uint64_t {
    const Inode* node = tree.FindInode(pick(i));
    return node != nullptr ? node->id : 0;
  };
  const Throughput warm = Measure(resolve_ops / 10 + 1, resolve_once);
  const Throughput walk = Measure(resolve_ops, resolve_once);

  // --- list -----------------------------------------------------------------
  std::vector<std::string> leaf_dirs;
  leaf_dirs.reserve(static_cast<std::size_t>(dirs));
  for (const auto& p : paths) {
    const std::string parent = mams::fsns::ParentPath(p);
    if (leaf_dirs.empty() || leaf_dirs.back() != parent) {
      leaf_dirs.push_back(parent);
    }
  }
  const Throughput list = Measure(
      static_cast<std::uint64_t>(leaf_dirs.size()) * 16, [&](std::uint64_t i) {
        auto names = tree.ListDir(leaf_dirs[i % leaf_dirs.size()]);
        return names.ok() ? names.value().size() : 0;
      });

  // --- rename ---------------------------------------------------------------
  const auto rename_ops =
      std::min<std::uint64_t>(paths.size(), 4096);
  std::uint64_t rename_seq = 0;
  const Throughput rename = Measure(rename_ops, [&](std::uint64_t i) {
    const std::string& src = paths[i];
    const std::string dst =
        mams::fsns::ParentPath(src) + "/r" + std::to_string(rename_seq++);
    auto r = tree.Execute(RenameRecord(src, dst, 1));
    if (r.ok()) (void)tree.Execute(RenameRecord(dst, src, 2));  // restore
    return r.ok() ? std::uint64_t{1} : std::uint64_t{0};
  });

  // --- churn: the same 1,000 names created and deleted, round after round --
  constexpr int kChurnRounds = 200;
  double churn_bytes_per_round = 0;
  {
    std::vector<std::string> names;
    for (int i = 0; i < 1000; ++i) {
      names.push_back("/churn/f" + std::to_string(i));
    }
    ChurnRound(tree, names);  // the first round sizes every table
    const std::size_t heap_before = HeapBytes();
    for (int round = 1; round < kChurnRounds; ++round) {
      ChurnRound(tree, names);
    }
    churn_bytes_per_round =
        (static_cast<double>(HeapBytes()) - static_cast<double>(heap_before)) /
        (kChurnRounds - 1);
  }

  std::printf("  create:            %12.0f ops/s\n", create_ops_per_sec);
  std::printf("  bytes per file:    %12.1f B\n", bytes_per_file);
  std::printf("  churn per round:   %12.1f B\n", churn_bytes_per_round);
  std::printf("  resolve walk:      %12.0f ops/s (checksum %" PRIu64 ")\n",
              walk.ops_per_sec, walk.checksum + warm.checksum);
  std::printf("  listdir:           %12.0f ops/s\n", list.ops_per_sec);
  std::printf("  rename:            %12.0f ops/s\n", rename.ops_per_sec);

  const char* out_path = std::getenv("MAMS_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_namespace.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_namespace\",\n"
               "  \"namespace\": {\"depth\": %d, \"leaf_dirs\": %d, "
               "\"files\": %zu},\n"
               "  \"bytes_per_file\": %.1f,\n"
               "  \"churn_bytes_per_round\": %.1f,\n"
               "  \"resolve\": {\"walk_ops_per_sec\": %.0f},\n"
               "  \"create_ops_per_sec\": %.0f,\n"
               "  \"listdir_ops_per_sec\": %.0f,\n"
               "  \"rename_ops_per_sec\": %.0f\n"
               "}\n",
               depth, dirs, paths.size(), bytes_per_file,
               churn_bytes_per_round, walk.ops_per_sec,
               create_ops_per_sec, list.ops_per_sec, rename.ops_per_sec);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
