// ScheduleFuzzer — randomized op streams plus randomized fault schedules,
// executed against a full CfsCluster in the deterministic simulator, with
// every client observation recorded for the linearizability checker.
//
// A RunSpec is the complete, replayable description of one run: the seed,
// the per-client operation schedule (with think times), and the fault
// schedule at absolute virtual times. All randomness is consumed at
// GENERATION time (MakeSpec), so executing a spec is deterministic and a
// shrunk spec replays bit-for-bit — the property the .repro files and the
// shrinker rely on.
//
// Fault palette (all self-healing, symmetric):
//   * link flap of an MDS replica (cut + timed restore)
//   * crash/restart of an MDS replica or the current active
//   * storage-pool node loss (crash + restart)
//   * delivery-jitter burst (clock-independent queueing noise)
// Profiles may add deterministic counts of shard migrations and of
// membership changes (a standby admitted to, or retired from, a group).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/history.hpp"
#include "common/types.hpp"
#include "core/options.hpp"
#include "workload/opstream.hpp"

namespace mams::check {

/// Which safety mechanism a run switches off (core::Mutation documents
/// each); kNone is the production configuration.
using core::Mutation;

/// Every mutation with its mams_check/.repro name. MutationName,
/// ParseMutation and mams_check's usage all read it.
struct NamedMutation {
  Mutation mutation;
  const char* name;
};
inline constexpr NamedMutation kMutations[] = {
    {Mutation::kNone, "none"},
    {Mutation::kNoSnDedup, "sn_dedup"},
    {Mutation::kNoFencing, "fencing"},
    {Mutation::kIgnoreMinSn, "min_sn"},
    {Mutation::kSkipCutoverFence, "cutover_fence"},
    {Mutation::kIgnoreLeaseRevoke, "lease_revoke"},
    {Mutation::kSspOffCommitPath, "ssp_off_path"},
};

const char* MutationName(Mutation m);
bool ParseMutation(const std::string& name, Mutation* out);

struct FaultAction {
  enum class Kind : std::uint8_t {
    kCutMember,    ///< link flap of MDS replica `target`
    kCrashMember,  ///< crash/restart of MDS replica `target`
    kCrashActive,  ///< crash/restart of whoever is active when it fires
    kCrashPool,    ///< storage-pool node `target` loss
    kJitterBurst,  ///< extra delivery jitter `param` for `duration`
    kMigrateSlot,  ///< kick off a shard migration of slot `target`
    kAddStandby,   ///< grow group `target` by one standby
    kRetireStandby,  ///< retire one drained standby of group `target`
  };
  Kind kind = Kind::kCutMember;
  SimTime at = 0;        ///< absolute virtual time
  /// Member / pool-node / slot index (kind-dependent). With multiple
  /// groups, member faults decode as group = (target / members) % groups,
  /// member = target % members; kCrashActive, kAddStandby and
  /// kRetireStandby decode target % groups.
  int target = 0;
  SimTime duration = 0;  ///< outage length / restart delay / burst length
  SimTime param = 0;     ///< jitter amount (kJitterBurst)
};

/// Every fault kind with its .repro name. FaultKindName and ParseFaultKind
/// read it.
struct NamedFaultKind {
  FaultAction::Kind kind;
  const char* name;
};
inline constexpr NamedFaultKind kFaultKinds[] = {
    {FaultAction::Kind::kCutMember, "cut"},
    {FaultAction::Kind::kCrashMember, "crash"},
    {FaultAction::Kind::kCrashActive, "crash_active"},
    {FaultAction::Kind::kCrashPool, "crash_pool"},
    {FaultAction::Kind::kJitterBurst, "jitter"},
    {FaultAction::Kind::kMigrateSlot, "migrate"},
    {FaultAction::Kind::kAddStandby, "add_standby"},
    {FaultAction::Kind::kRetireStandby, "retire_standby"},
};

const char* FaultKindName(FaultAction::Kind kind);
bool ParseFaultKind(const std::string& name, FaultAction::Kind* out);

struct OpEntry {
  int client = 0;
  SimTime think = 0;  ///< delay after the client's previous completion
  workload::Op op;
};

struct RunSpec {
  std::uint64_t seed = 1;
  int clients = 2;
  /// Replica groups. With more than one, the cluster boots with a seeded
  /// partition map (shard::PartitionMap::Seed) and clients route by slot;
  /// kMigrateSlot faults then move live shards between groups mid-run.
  int groups = 1;
  int standbys = 2;
  Mutation mutation = Mutation::kNone;
  /// Serve reads from standbys (session-consistent offload) and route the
  /// fuzz clients' reads round-robin over them. Audit reads always go to
  /// the active regardless.
  bool standby_reads = false;
  /// Enable the client-side lease-protected namespace cache: actives grant
  /// per-directory leases on reads and clients answer repeat reads locally
  /// while the lease lives. Audit reads bypass the cache (require_active).
  bool client_cache = false;
  SimTime warmup = 2 * kSecond;     ///< boot -> first op
  SimTime run_for = 30 * kSecond;   ///< op/fault phase -> heal
  SimTime quiesce = 45 * kSecond;   ///< heal -> audit reads
  std::vector<OpEntry> ops;
  std::vector<FaultAction> faults;
};

/// Generation profile: how MakeSpec shapes a spec for a given seed.
struct FuzzProfile {
  int clients = 2;
  int ops_per_client = 40;
  int faults = 5;
  workload::Mix mix;   ///< zero-initialized: MakeSpec fills a default mix
  /// Copied into RunSpec::standby_reads by MakeSpec.
  bool standby_reads = false;
  /// Copied into RunSpec::client_cache by MakeSpec.
  bool client_cache = false;
  /// Copied into RunSpec::groups by MakeSpec.
  int groups = 1;
  /// Shard migrations to schedule as kMigrateSlot faults (in addition to
  /// `faults`); ignored when groups == 1. A deterministic count — rather
  /// than a roll in the fault palette — guarantees every seed actually
  /// exercises migrations.
  int migrations = 0;
  /// Membership changes to schedule (in addition to `faults`), alternately
  /// kAddStandby and kRetireStandby on a uniform group. Like `migrations`,
  /// a deterministic count: every seed changes its membership.
  int membership_changes = 0;
  /// All clients work one shared directory tree instead of disjoint
  /// per-client roots. Disjoint roots make every same-batch record pair
  /// conflict-free, which is exactly the case where the apply planner has
  /// nothing to order — a shared namespace is what makes intra-batch
  /// dependencies (and planner bugs) reachable.
  bool shared_namespace = false;
  /// Clients issue ops with sub-10ms think times instead of 20-400ms.
  /// Group commit only aggregates records that arrive while the commit
  /// window is full — clients slower than a sync round produce
  /// single-record batches, which reordering cannot disturb. Hot clients
  /// outrun the sync rounds, so batches grow genuinely multi-record.
  bool hot_clients = false;
};

RunSpec MakeSpec(std::uint64_t seed, const FuzzProfile& profile = {});

/// Shapes `profile` as the named checker profile (mams_check --profile):
/// default, renames, migrations, apply_race, cache, leases or elastic. Set
/// the sizes first; a profile that needs more clients or faults raises
/// them to its floor. Returns false, leaving `profile` as it was, on an
/// unknown name.
bool ApplyProfile(const std::string& name, FuzzProfile* profile);

struct RunResult {
  CheckResult check;
  std::vector<Violation> violations;  ///< check violations + divergence
  History history;
  std::uint64_t run_digest = 0;
  SimTime virtual_end = 0;
  /// Membership changes that took effect. A retire is refused when the
  /// group has no drained standby (CfsCluster::PickDemotable).
  int standbys_added = 0;
  int standbys_retired = 0;

  bool violated() const noexcept { return !violations.empty(); }
};

/// Executes one spec end to end: boot, op/fault phase, heal, quiesce,
/// audit reads of every touched path, replica-divergence audit, history
/// check.
RunResult RunSpecOnce(const RunSpec& spec);

}  // namespace mams::check
