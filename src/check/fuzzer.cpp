#include "check/fuzzer.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "cluster/cfs.hpp"
#include "common/rng.hpp"
#include "fsns/path.hpp"
#include "net/network.hpp"
#include "shard/partition_map.hpp"
#include "sim/simulator.hpp"

namespace mams::check {

namespace {

using workload::OpKind;

workload::Mix DefaultMix() {
  workload::Mix mix;
  mix.create = 0.30;
  mix.mkdir = 0.10;
  mix.remove = 0.10;
  mix.rename = 0.10;
  mix.getfileinfo = 0.20;
  mix.listdir = 0.08;
  mix.add_block = 0.12;
  return mix;
}

/// Longest link-flap outage; flaps longer than the 5 s session timeout
/// depose the active while it keeps serving its last lease.
constexpr SimTime kMaxOutage = 12 * kSecond;

bool MixEmpty(const workload::Mix& m) {
  return m.create + m.mkdir + m.remove + m.rename + m.getfileinfo +
             m.listdir + m.add_block <=
         0;
}

}  // namespace

const char* MutationName(Mutation m) {
  for (const NamedMutation& nm : kMutations) {
    if (nm.mutation == m) return nm.name;
  }
  return "?";
}

bool ParseMutation(const std::string& name, Mutation* out) {
  for (const NamedMutation& nm : kMutations) {
    if (name == nm.name) {
      *out = nm.mutation;
      return true;
    }
  }
  return false;
}

const char* FaultKindName(FaultAction::Kind kind) {
  for (const NamedFaultKind& nk : kFaultKinds) {
    if (nk.kind == kind) return nk.name;
  }
  return "?";
}

bool ParseFaultKind(const std::string& name, FaultAction::Kind* out) {
  for (const NamedFaultKind& nk : kFaultKinds) {
    if (name == nk.name) {
      *out = nk.kind;
      return true;
    }
  }
  return false;
}

namespace {

struct NamedProfile {
  const char* name;
  void (*shape)(FuzzProfile&);
};

void ShapeCache(FuzzProfile& p) {
  // Lease-cache pressure: every client reads and mutates one shared
  // tree, so directory leases are granted and revoked continuously
  // and reads race mutations on the same directories — the window
  // where a dropped or late revocation turns a cache hit stale. Hot
  // clients keep revocation barriers live for most of the run, so the
  // fault schedule (crashes, flaps, migrations) lands inside
  // revocation windows instead of between them. Extra faults widen
  // the failover coverage (lease flush on view change, TTL-expiry
  // backstop).
  p.clients = std::max(p.clients, 3);
  p.shared_namespace = true;
  p.hot_clients = true;
  p.faults = std::max(p.faults, 7);
  p.client_cache = true;
  // Mutation-heavy with a strong read component: mutations drive
  // revocations, reads re-populate the cache right behind them.
  p.mix.create = 0.25;
  p.mix.remove = 0.15;
  p.mix.rename = 0.10;
  p.mix.getfileinfo = 0.30;
  p.mix.listdir = 0.20;
}

constexpr NamedProfile kProfiles[] = {
    {"default", [](FuzzProfile&) {}},
    {"renames",
     [](FuzzProfile& p) {
       // Rename/delete storms: subtree moves and removals under replay.
       p.mix.create = 0.30;
       p.mix.rename = 0.25;
       p.mix.remove = 0.20;
       p.mix.getfileinfo = 0.15;
       p.mix.listdir = 0.10;
     }},
    {"migrations",
     [](FuzzProfile& p) {
       // Two replica groups behind a seeded partition map; shard
       // migrations fire mid-run and renames and mkdirs regularly cross
       // the group boundary, so two-group intents of both kinds run under
       // migrations and crash faults.
       p.groups = 2;
       p.migrations = 3;
       p.mix.create = 0.40;
       p.mix.mkdir = 0.05;
       p.mix.rename = 0.20;
       p.mix.remove = 0.10;
       p.mix.getfileinfo = 0.25;
     }},
    {"apply_race",
     [](FuzzProfile& p) {
       // Batch-replay pressure: every client mutates one shared tree, so
       // same-batch records collide on directories — the shape where a
       // replica that applied a batch out of record order would diverge
       // from the active. Batches only grow wide when the closed-loop
       // backlog exceeds the four-slot commit window (a free slot seals
       // every record alone), so the profile runs many sub-2ms clients:
       // 24 replay about 1.5 records per batch.
       p.clients = std::max(p.clients, 24);
       p.shared_namespace = true;
       p.hot_clients = true;
       // create/add_block/remove-heavy: create->addBlock->delete chains on
       // one file are the record pairs whose order a replica cannot fudge.
       p.mix.create = 0.40;
       p.mix.add_block = 0.20;
       p.mix.remove = 0.20;
       p.mix.rename = 0.10;
       p.mix.getfileinfo = 0.10;
     }},
    {"cache", ShapeCache},
    {"leases",
     [](FuzzProfile& p) {
       // `cache` at the default think times, read-heavy: a run spans
       // several lease TTLs, so lines hit again and again live on by
       // renewal while patches, revocations and faults land between
       // renewals. `cache`'s hot clients finish inside one TTL.
       ShapeCache(p);
       p.hot_clients = false;
       p.mix = {.create = 0.10, .remove = 0.05, .rename = 0.05,
                .getfileinfo = 0.60, .listdir = 0.20};
     }},
    {"elastic",
     [](FuzzProfile& p) {
       // Elastic membership as a fault-schedule ingredient: standbys are
       // admitted and retired all through the op/fault phase while
       // crashes and flaps land on the same members. Standby reads are on
       // and the mix is read-heavy, so read routing chases the moving
       // membership.
       p.standby_reads = true;
       p.membership_changes = 6;
       p.hot_clients = true;
       p.clients = std::max(p.clients, 4);
       p.mix.create = 0.20;
       p.mix.remove = 0.05;
       p.mix.getfileinfo = 0.55;
       p.mix.listdir = 0.20;
     }},
};

}  // namespace

bool ApplyProfile(const std::string& name, FuzzProfile* profile) {
  for (const NamedProfile& p : kProfiles) {
    if (name == p.name) {
      p.shape(*profile);
      return true;
    }
  }
  return false;
}

RunSpec MakeSpec(std::uint64_t seed, const FuzzProfile& profile) {
  RunSpec spec;
  spec.seed = seed;
  spec.clients = profile.clients;
  spec.groups = std::max(1, profile.groups);
  spec.standby_reads = profile.standby_reads;
  spec.client_cache = profile.client_cache;
  // Generation rng is decoupled from the execution seed so that replaying
  // a spec never re-consults it.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x66757a7aull);
  const workload::Mix mix = MixEmpty(profile.mix) ? DefaultMix() : profile.mix;

  if (profile.shared_namespace) {
    // One op stream dealt round-robin across every client: consecutive,
    // *dependent* ops (create f -> addBlock f -> delete f) come from
    // different clients, so they can be in flight concurrently and land
    // in one journal batch. Disjoint per-client streams almost never put
    // two ops on the same file into the same batch — the only durable
    // way a replica-side reordering diverges (directory-mtime skew heals
    // as later traffic overwrites it; same-file races do not).
    workload::OpStream stream(mix, seed ^ 0x517cc1b727220a95ull,
                              /*directories=*/6, "/fuzz/shared");
    const int total = spec.clients * profile.ops_per_client;
    for (int i = 0; i < total; ++i) {
      OpEntry entry;
      entry.client = i % spec.clients;
      entry.think =
          profile.hot_clients
              ? static_cast<SimTime>(rng.Below(2000)) * kMicrosecond
              : static_cast<SimTime>(20 + rng.Below(380)) * kMillisecond;
      entry.op = stream.Next();
      spec.ops.push_back(std::move(entry));
    }
  } else {
    // Per-client op schedules. Disjoint per-client roots keep the
    // checker's cross-client interleavings tractable while the cluster
    // still serializes everything through the single active. With more
    // than one client the last is slow, on multi-second think times: it
    // spans failover windows with a stale active cache, the access pattern
    // that exposes fencing bugs.
    std::vector<std::vector<OpEntry>> per_client(
        static_cast<std::size_t>(spec.clients));
    for (int c = 0; c < spec.clients; ++c) {
      const bool slow = spec.clients > 1 && c == spec.clients - 1;
      workload::OpStream stream(
          mix,
          seed ^ (0x517cc1b727220a95ull * static_cast<std::uint64_t>(c + 1)),
          /*directories=*/6, "/fuzz/c" + std::to_string(c));
      const int count = slow ? std::max(4, profile.ops_per_client / 4)
                             : profile.ops_per_client;
      for (int i = 0; i < count; ++i) {
        OpEntry entry;
        entry.client = c;
        entry.think =
            slow ? static_cast<SimTime>(1500 + rng.Below(2500)) * kMillisecond
            : profile.hot_clients
                ? static_cast<SimTime>(rng.Below(2000)) * kMicrosecond
                : static_cast<SimTime>(20 + rng.Below(380)) * kMillisecond;
        entry.op = stream.Next();
        per_client[static_cast<std::size_t>(c)].push_back(std::move(entry));
      }
    }
    // Round-robin interleave: shrinker chunks then cut across clients
    // evenly.
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (const auto& list : per_client) {
        if (i < list.size()) {
          spec.ops.push_back(list[i]);
          any = true;
        }
      }
      if (!any) break;
    }
  }

  // Fault schedule, front-loaded into the op phase so the quiesce window
  // sees only recovery. All faults self-heal well before the audit.
  const SimTime window = spec.run_for - spec.run_for / 5;
  for (int f = 0; f < profile.faults; ++f) {
    FaultAction a;
    a.at = spec.warmup +
           static_cast<SimTime>(rng.Below(static_cast<std::uint64_t>(window)));
    // Member-fault targets span every group's replicas: the dispatch in
    // RunSpecOnce decodes group = (target / members) % groups. With one
    // group the range (and the rng consumption) is unchanged.
    const std::uint64_t member_targets = static_cast<std::uint64_t>(
        (1 + spec.standbys) * spec.groups);
    const double roll = rng.Uniform();
    if (roll < 0.35) {
      a.kind = FaultAction::Kind::kCutMember;
      a.target = static_cast<int>(rng.Below(member_targets));
      a.duration =
          static_cast<SimTime>(
              2000 + rng.Below(static_cast<std::uint64_t>(std::max<SimTime>(
                         1, kMaxOutage / kMillisecond - 2000)))) *
          kMillisecond;
    } else if (roll < 0.55) {
      a.kind = FaultAction::Kind::kCrashMember;
      a.target = static_cast<int>(rng.Below(member_targets));
      a.duration = static_cast<SimTime>(1000 + rng.Below(7000)) * kMillisecond;
    } else if (roll < 0.75) {
      a.kind = FaultAction::Kind::kCrashActive;
      if (spec.groups > 1) {
        a.target = static_cast<int>(
            rng.Below(static_cast<std::uint64_t>(spec.groups)));
      }
      a.duration = static_cast<SimTime>(1000 + rng.Below(7000)) * kMillisecond;
    } else if (roll < 0.90) {
      a.kind = FaultAction::Kind::kCrashPool;
      a.target = static_cast<int>(rng.Below(1 + spec.standbys));
      a.duration = static_cast<SimTime>(2000 + rng.Below(8000)) * kMillisecond;
    } else {
      a.kind = FaultAction::Kind::kJitterBurst;
      a.param = static_cast<SimTime>(500 + rng.Below(19500)) * kMicrosecond;
      a.duration = static_cast<SimTime>(2000 + rng.Below(6000)) * kMillisecond;
    }
    spec.faults.push_back(a);
  }
  // Shard migrations: a deterministic count so every multi-group seed
  // actually moves shards. Half target the slot of a path the workload
  // touches (migrating live data under traffic), half a uniform slot.
  if (spec.groups > 1) {
    for (int m = 0; m < profile.migrations; ++m) {
      FaultAction a;
      a.kind = FaultAction::Kind::kMigrateSlot;
      a.at = spec.warmup +
             static_cast<SimTime>(rng.Below(static_cast<std::uint64_t>(window)));
      if (!spec.ops.empty() && rng.Uniform() < 0.5) {
        const workload::Op& pick =
            spec.ops[static_cast<std::size_t>(rng.Below(spec.ops.size()))].op;
        a.target = static_cast<int>(
            fsns::PathSlot(pick.path, shard::PartitionMap::kDefaultSlots));
      } else {
        a.target =
            static_cast<int>(rng.Below(shard::PartitionMap::kDefaultSlots));
      }
      spec.faults.push_back(a);
    }
  }
  // Membership changes draw after everything else, so a profile without
  // them generates exactly the spec it did before they existed.
  for (int m = 0; m < profile.membership_changes; ++m) {
    FaultAction a;
    a.kind = m % 2 == 0 ? FaultAction::Kind::kAddStandby
                        : FaultAction::Kind::kRetireStandby;
    a.at = spec.warmup +
           static_cast<SimTime>(rng.Below(static_cast<std::uint64_t>(window)));
    a.target =
        static_cast<int>(rng.Below(static_cast<std::uint64_t>(spec.groups)));
    spec.faults.push_back(a);
  }
  std::sort(spec.faults.begin(), spec.faults.end(),
            [](const FaultAction& x, const FaultAction& y) {
              return x.at < y.at;
            });
  return spec;
}

namespace {

/// Drives one client's op list: each op starts `think` after the previous
/// one completed (closed loop). Held by shared_ptr so the callback chain
/// owns it.
struct ClientScript : std::enable_shared_from_this<ClientScript> {
  sim::Simulator* sim = nullptr;
  RecordingClient* client = nullptr;
  std::vector<OpEntry> ops;
  std::size_t next = 0;
  bool audit = false;
  bool done = false;

  void Step() {
    if (next >= ops.size()) {
      done = true;
      return;
    }
    const OpEntry& entry = ops[next];
    ++next;
    auto self = shared_from_this();
    sim->After(entry.think, [self, &entry] {
      self->client->Issue(entry.op, [self] { self->Step(); }, self->audit);
    });
  }
};

}  // namespace

RunResult RunSpecOnce(const RunSpec& spec) {
  sim::Simulator sim(spec.seed);
  net::Network net(sim);

  cluster::CfsConfig cfg;
  const int groups = std::max(1, spec.groups);
  cfg.groups = static_cast<GroupId>(groups);
  cfg.standbys_per_group = spec.standbys;
  cfg.juniors_per_group = 0;
  cfg.data_servers = 1;
  cfg.clients = spec.clients;
  cfg.mds.mutation = spec.mutation;
  // The min_sn mutation is only observable when standbys answer reads, so
  // it forces the offload on; .repro files then replay correctly even if
  // they predate the standby_reads field.
  if (spec.standby_reads || spec.mutation == Mutation::kIgnoreMinSn) {
    cfg.mds.standby_reads.serve_reads = true;
    cfg.client.read_routing = cluster::ReadRouting::kRoundRobinStandby;
  }
  // Likewise the lease_revoke mutation is only observable when the client
  // cache is live, so it forces caching on.
  if (spec.client_cache || spec.mutation == Mutation::kIgnoreLeaseRevoke) {
    cfg.mds.client_leases.grant_leases = true;
    cfg.client.cache.enabled = true;
  }
  // An op that cannot finish inside one failover should give up and show
  // up as ambiguous rather than pin its client for the whole run.
  cfg.client.max_attempts = 40;

  cluster::CfsCluster cfs(net, cfg);
  cfs.Start();
  RunResult result;

  HistoryRecorder recorder(sim);
  std::vector<std::unique_ptr<RecordingClient>> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(
        std::make_unique<RecordingClient>(recorder, cfs.client(c), c));
  }

  // Client scripts start at warmup.
  std::vector<std::shared_ptr<ClientScript>> scripts;
  for (int c = 0; c < spec.clients; ++c) {
    auto script = std::make_shared<ClientScript>();
    script->sim = &sim;
    script->client = clients[static_cast<std::size_t>(c)].get();
    for (const OpEntry& e : spec.ops) {
      if (e.client == c) script->ops.push_back(e);
    }
    scripts.push_back(script);
    sim.At(spec.warmup, [script] { script->Step(); });
  }

  // Fault schedule.
  const int members = 1 + spec.standbys;
  for (const FaultAction& f : spec.faults) {
    sim.At(f.at, [&cfs, &result, f, members, groups] {
      const GroupId fg = static_cast<GroupId>((f.target / members) % groups);
      cluster::Faults& faults = cfs.faults();
      switch (f.kind) {
        case FaultAction::Kind::kCutMember:
          faults.Unplug(cfs.mds(fg, f.target % members).id(), f.duration);
          break;
        case FaultAction::Kind::kCrashMember:
          faults.Crash(cfs.mds(fg, f.target % members), f.duration);
          break;
        case FaultAction::Kind::kCrashActive:
          faults.CrashActive(static_cast<GroupId>(f.target % groups),
                             f.duration);
          break;
        case FaultAction::Kind::kCrashPool:
          faults.Crash(cfs.pool_node(f.target % members), f.duration);
          break;
        case FaultAction::Kind::kJitterBurst:
          faults.Jitter(f.param, f.duration);
          break;
        case FaultAction::Kind::kMigrateSlot:
          // Best effort: the owning active may be down or mid-failover
          // right now — a refused kick is part of the schedule, not an
          // error (the checker only judges what clients observed).
          (void)cfs.StartShardMigration(static_cast<std::uint32_t>(
              f.target % static_cast<int>(shard::PartitionMap::kDefaultSlots)));
          break;
        case FaultAction::Kind::kAddStandby:
          (void)cfs.AddStandby(static_cast<GroupId>(f.target % groups));
          ++result.standbys_added;
          break;
        case FaultAction::Kind::kRetireStandby:
          // Refused while no standby is drained or the group is
          // mid-failover; like a refused migration, part of the schedule.
          if (cfs.RemoveStandby(static_cast<GroupId>(f.target % groups))
                  .ok()) {
            ++result.standbys_retired;
          }
          break;
      }
    });
  }

  // Heal everything after the op/fault phase and boot every dead process
  // (retirees too), so the audit runs against a fully recovered cluster.
  const SimTime heal_at = spec.warmup + spec.run_for;
  sim.At(heal_at, [&cfs] { cfs.faults().Heal(); });

  // Audit reads: after the quiesce window, stat every path the workload
  // ever touched. These are ordinary recorded history events — the
  // checker treats them as reads that must be explained by some
  // linearization, which is what turns a silently lost acknowledgement
  // into a contradiction.
  const SimTime audit_at = heal_at + spec.quiesce;
  std::set<std::string> touched;
  for (const OpEntry& e : spec.ops) {
    touched.insert(e.op.path);
    if (!e.op.path2.empty()) touched.insert(e.op.path2);
  }
  auto audit = std::make_shared<ClientScript>();
  audit->sim = &sim;
  audit->client = clients[0].get();
  audit->audit = true;
  for (const std::string& path : touched) {
    OpEntry entry;
    entry.client = 0;
    entry.think = 0;
    entry.op.kind = OpKind::kGetFileInfo;
    entry.op.path = path;
    audit->ops.push_back(std::move(entry));
  }
  sim.At(audit_at, [audit] { audit->Step(); });

  // Run the schedule out. The audit client is closed-loop, so give it a
  // bounded window after audit_at; workload stragglers that still have
  // not completed are sealed as ambiguous.
  sim.RunUntil(audit_at);
  const SimTime hard_deadline = audit_at + 120 * kSecond;
  while (!audit->done && sim.Now() < hard_deadline) {
    sim.RunUntil(sim.Now() + kSecond);
  }
  recorder.history().Seal();
  result.virtual_end = sim.Now();
  result.run_digest = sim.run_digest();

  // Replica-divergence audit: at quiescence every standby must hold its
  // group active's exact namespace (same criterion the chaos tests use).
  for (GroupId g = 0; g < static_cast<GroupId>(groups); ++g) {
    for (core::MdsServer* mds : cfs.DivergedStandbys(g)) {
      const core::MdsServer& active = *cfs.FindActive(g);
      result.violations.push_back(
          {Violation::Type::kReplicaDivergence,
           mds->name() + " fingerprint differs from active " +
               active.name() + " after quiesce (sn " +
               std::to_string(mds->last_sn()) + " vs " +
               std::to_string(active.last_sn()) + ")",
           {}});
    }
  }

  // Invariant probes that fired during the run are violations too.
  for (const auto& pv : sim.obs().probes().violations()) {
    result.violations.push_back(
        {Violation::Type::kInvariantProbe,
         "probe '" + pv.probe + "' at t=" + std::to_string(pv.at) + ": " +
             pv.detail,
         {}});
  }

  result.history = recorder.history();
  result.check = CheckHistory(result.history);
  for (const Violation& v : result.check.violations) {
    result.violations.push_back(v);
  }
  return result;
}

}  // namespace mams::check
