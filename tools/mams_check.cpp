// mams_check — the cluster checker CLI.
//
// Sweep mode (default): runs a seed sweep of the schedule fuzzer, checks
// every recorded history for linearizability against the namespace model,
// and on violation shrinks the schedule and writes a replayable .repro
// file. Exit status 1 when any seed violated.
//
//   mams_check --seeds 200                        # PR/nightly gate
//   mams_check --seeds 60 --mutation fencing      # must find a violation
//   mams_check --replay repro-seed42.repro        # re-run a reproducer
//   mams_check --seeds 300 --digests              # behaviour fingerprint
//
// Replay mode executes a .repro twice and compares the simulator run
// digests, proving the reproduction deterministic before printing the
// violations it reproduces.
//
// Digest mode prints one line per seed — the seed, the simulator's
// run_digest and a digest of the recorded history — and nothing else, so
// a sweep's output can be diffed against a checked-in table
// (tests/digests/). It neither shrinks nor writes reproducers, and exits 0
// whatever the histories hold: it locks behaviour, the sweep gates it.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "common/bytes.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"

namespace {

using namespace mams;        // NOLINT
using namespace mams::check;  // NOLINT

struct Args {
  int seeds = 50;
  std::uint64_t seed_base = 1;
  bool single_seed = false;
  std::uint64_t seed = 0;
  Mutation mutation = Mutation::kNone;
  FuzzProfile profile;  ///< sizes from the flags, shaped by --profile
  bool shrink = true;
  int shrink_runs = 200;
  std::string replay;
  std::string out_dir = ".";
  bool verbose = false;
  bool digests = false;
};

void Usage() {
  std::string mutations;
  for (const NamedMutation& m : kMutations) {
    if (!mutations.empty()) mutations += '|';
    mutations += m.name;
  }
  std::fprintf(
      stderr,
      "usage: mams_check [options]\n"
      "  --seeds N          seeds to sweep (default 50)\n"
      "  --seed-base B      first seed (default 1)\n"
      "  --seed S           run exactly one seed\n"
      "  --mutation M       %s\n"
      "                     (default none; cutover_fence implies the\n"
      "                     migrations profile's two-group topology;\n"
      "                     lease_revoke implies the cache profile;\n"
      "                     ssp_off_path shows under --profile migrations)\n"
      "  --standby-reads    serve reads from standbys (session-consistent\n"
      "                     offload; min_sn mutation implies this)\n"
      "  --clients N        fuzz clients per run (default 2)\n"
      "  --ops N            ops per client (default 40)\n"
      "  --faults N         faults per run (default 5)\n"
      "  --profile P        default|renames|migrations|apply_race|cache|\n"
      "                     leases|elastic — renames is rename/delete-heavy\n"
      "                     (subtree moves under replay); migrations runs two\n"
      "                     replica groups with live shard migrations and\n"
      "                     cross-group renames; apply_race points at\n"
      "                     least 24 hot clients at one shared tree so\n"
      "                     their backlog overfills the commit window and\n"
      "                     replicas replay multi-record batches of\n"
      "                     dependent records; cache turns on the\n"
      "                     lease-protected client cache with a\n"
      "                     mutation-heavy shared tree; leases runs it\n"
      "                     read-heavy at slow think times, across several\n"
      "                     lease TTLs, so lines are renewed; elastic adds six\n"
      "                     membership changes per seed (add_standby and\n"
      "                     retire_standby faults, with standby reads) to\n"
      "                     the fault schedule\n"
      "  --no-shrink        skip schedule shrinking on violation\n"
      "  --shrink-runs N    shrink rerun budget (default 200)\n"
      "  --out-dir DIR      where .repro files go (default .)\n"
      "  --replay FILE      re-run a .repro file (twice; digests compared)\n"
      "  --verbose          print per-seed progress, fault schedules\n"
      "                     (as .repro `fault` lines) and histories\n"
      "  --digests          print `seed run_digest history_digest` per\n"
      "                     seed instead of the violation report\n"
      "                     (exit 0)\n",
      mutations.c_str());
}

/// Parses `text` whole as an integer of at least `min` into *out; on
/// failure says why and returns false.
template <typename T>
bool ParseNumber(const std::string& flag, const char* text, T min, T* out) {
  const char* end = text + std::strlen(text);
  T n{};
  const auto [at, ec] = std::from_chars(text, end, n);
  if (ec != std::errc() || at != end || n < min) {
    std::fprintf(stderr, "%s needs a whole number >= %lld, got %s\n",
                 flag.c_str(), static_cast<long long>(min), text);
    return false;
  }
  *out = n;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string profile = "default";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--seeds") {
      ok = ParseNumber(arg, value(), 1, &args->seeds);
    } else if (arg == "--seed-base") {
      ok = ParseNumber(arg, value(), std::uint64_t{0}, &args->seed_base);
    } else if (arg == "--seed") {
      args->single_seed = true;
      ok = ParseNumber(arg, value(), std::uint64_t{0}, &args->seed);
    } else if (arg == "--mutation") {
      if (!ParseMutation(value(), &args->mutation)) {
        std::fprintf(stderr, "unknown mutation\n");
        return false;
      }
    } else if (arg == "--standby-reads") {
      args->profile.standby_reads = true;
    } else if (arg == "--clients") {
      ok = ParseNumber(arg, value(), 1, &args->profile.clients);
    } else if (arg == "--ops") {
      ok = ParseNumber(arg, value(), 1, &args->profile.ops_per_client);
    } else if (arg == "--faults") {
      ok = ParseNumber(arg, value(), 0, &args->profile.faults);
    } else if (arg == "--profile") {
      profile = value();
    } else if (arg == "--no-shrink") {
      args->shrink = false;
    } else if (arg == "--shrink-runs") {
      ok = ParseNumber(arg, value(), 1, &args->shrink_runs);
    } else if (arg == "--out-dir") {
      args->out_dir = value();
    } else if (arg == "--replay") {
      args->replay = value();
    } else if (arg == "--digests") {
      args->digests = true;
    } else if (arg == "--verbose" || arg == "-v") {
      args->verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  // cutover_fence needs the migrations profile's two groups and
  // lease_revoke the cache profile's lease cache: each implies its profile
  // unless --profile names another.
  if (profile == "default" && args->mutation == Mutation::kSkipCutoverFence) {
    profile = "migrations";
  }
  if (profile == "default" && args->mutation == Mutation::kIgnoreLeaseRevoke) {
    profile = "cache";
  }
  if (!ApplyProfile(profile, &args->profile)) {
    std::fprintf(stderr, "unknown profile %s\n", profile.c_str());
    return false;
  }
  return true;
}

/// Order-sensitive FNV-1a fold of every recorded event: its formatted line
/// (op, paths, times, outcome, routing) plus the read view it observed.
std::uint64_t HistoryDigest(const History& history) {
  std::uint64_t h = kFnvOffset;
  for (const Event& e : history.events()) {
    h = Fnv1a(history.Format(e), h);
    const std::uint64_t view[] = {e.view.replication, e.view.block_count,
                                  e.view.complete ? 1u : 0u};
    h = Fnv1a(view, sizeof(view), h);
    for (const std::string& name : e.view.listing) h = Fnv1a(name, h);
  }
  return h;
}

void PrintHistory(const History& history) {
  for (const Event& e : history.events()) {
    std::printf("  %s\n", history.Format(e).c_str());
  }
}

void PrintViolations(const RunResult& result) {
  for (const Violation& v : result.violations) {
    std::printf("  %s\n", FormatViolation(result.history, v).c_str());
  }
}

int Replay(const Args& args) {
  Result<RunSpec> spec = ReadSpecFile(args.replay);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  RunResult first = RunSpecOnce(spec.value());
  RunResult second = RunSpecOnce(spec.value());
  const bool deterministic =
      first.run_digest == second.run_digest &&
      first.violations.size() == second.violations.size();
  std::printf("replay %s: %zu ops, %zu faults, seed %llu\n",
              args.replay.c_str(), spec.value().ops.size(),
              spec.value().faults.size(),
              static_cast<unsigned long long>(spec.value().seed));
  std::printf("deterministic replay: %s (digest %016llx)\n",
              deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(first.run_digest));
  if (args.verbose) PrintHistory(first.history);
  if (first.violated()) {
    std::printf("violations (%zu):\n", first.violations.size());
    PrintViolations(first);
  } else {
    std::printf("no violation reproduced\n");
  }
  if (!deterministic) return 3;
  return first.violated() ? 1 : 0;
}

int Sweep(const Args& args) {
  const std::uint64_t base = args.single_seed ? args.seed : args.seed_base;
  const int count = args.single_seed ? 1 : args.seeds;
  int violated_seeds = 0;
  std::uint64_t total_events = 0;
  int standbys_added = 0;
  int standbys_retired = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    RunSpec spec = MakeSpec(seed, args.profile);
    spec.mutation = args.mutation;
    RunResult result = RunSpecOnce(spec);
    if (args.digests) {
      std::printf("%llu %016llx %016llx\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(result.run_digest),
                  static_cast<unsigned long long>(
                      HistoryDigest(result.history)));
      continue;
    }
    total_events += result.history.size();
    standbys_added += result.standbys_added;
    standbys_retired += result.standbys_retired;
    if (args.verbose) {
      std::printf("seed %llu: %zu events, %llu states, %s\n",
                  static_cast<unsigned long long>(seed),
                  result.history.size(),
                  static_cast<unsigned long long>(
                      result.check.states_explored),
                  result.violated() ? "VIOLATION" : "ok");
      std::istringstream spec_lines(SerializeSpec(spec));
      for (std::string line; std::getline(spec_lines, line);) {
        if (line.starts_with("fault ")) std::printf("  %s\n", line.c_str());
      }
      PrintHistory(result.history);
    }
    if (!result.violated()) continue;
    ++violated_seeds;
    std::printf("seed %llu VIOLATED (%zu violations):\n",
                static_cast<unsigned long long>(seed),
                result.violations.size());
    PrintViolations(result);

    RunSpec to_write = spec;
    if (args.shrink) {
      ShrinkResult shrunk = Shrink(spec, args.shrink_runs);
      if (shrunk.result.violated()) {
        to_write = shrunk.spec;
        std::printf(
            "  shrunk %zu->%zu ops, %zu->%zu faults in %d reruns; now:\n",
            spec.ops.size(), to_write.ops.size(), spec.faults.size(),
            to_write.faults.size(), shrunk.runs);
        PrintViolations(shrunk.result);
      } else {
        std::printf("  (violation did not reproduce under shrinking; "
                    "writing the original schedule)\n");
      }
    }
    const std::string file =
        args.out_dir + "/repro-" + MutationName(args.mutation) + "-seed" +
        std::to_string(seed) + ".repro";
    const Status ws = WriteSpecFile(to_write, file);
    if (ws.ok()) {
      std::printf("  wrote %s\n", file.c_str());
    } else {
      std::fprintf(stderr, "  %s\n", ws.ToString().c_str());
    }
  }
  if (args.digests) return 0;
  std::printf(
      "%d/%d seeds violated (mutation=%s, %llu history events total)\n",
      violated_seeds, count, MutationName(args.mutation),
      static_cast<unsigned long long>(total_events));
  if (args.profile.membership_changes > 0) {
    std::printf("membership changes: %d standbys added, %d retired\n",
                standbys_added, standbys_retired);
  }
  return violated_seeds > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.replay.empty()) return Replay(args);
  return Sweep(args);
}
