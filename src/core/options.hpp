// Settings of a MAMS metadata server: only the values some deployment,
// bench, test or checker profile sets. Everything else the protocol needs
// is a named constant beside the code that reads it (session timing in
// coord/messages.hpp, RPC policies and protocol timers in mds_server.cpp);
// a value becomes a field here in the same change as its first setter.
#pragma once

#include "common/types.hpp"
#include "coord/messages.hpp"
#include "shard/partition_map.hpp"

namespace mams::core {

/// Pure CPU service time per operation at a metadata server (MAMS and the
/// baselines alike), before journaling/synchronization. Calibrated so a
/// single server sustains on the order of 10^4 metadata ops/s, as
/// HDFS-class namenodes do. A constant: kOpCosts is the only instance.
struct OpCosts {
  SimTime create = 45 * kMicrosecond;
  SimTime mkdir = 55 * kMicrosecond;
  SimTime remove = 60 * kMicrosecond;
  SimTime rename = 70 * kMicrosecond;
  SimTime getfileinfo = 18 * kMicrosecond;
  SimTime listdir = 30 * kMicrosecond;
  SimTime add_block = 30 * kMicrosecond;
  /// One line of a read's lease renewals: checked, and its grant extended,
  /// on a request that already paid for its decode, lookup and reply.
  /// Measured against ReadService::Execute (docs/PERFORMANCE.md §8).
  SimTime lease_renewal = 2 * kMicrosecond;
  SimTime block_report_per_1k = 150 * kMicrosecond;
  /// Journal replication fan-out: per-sync-target CPU on the active
  /// (serialize + checksum + send) — base charge plus streaming rate.
  SimTime sync_cpu_base = 25 * kMicrosecond;
  double sync_bytes_per_sec = 500.0e6;
};
inline constexpr OpCosts kOpCosts{};

/// One deliberately broken safety mechanism, for the checker's mutation
/// self-tests (docs/TESTING.md, "Mutation self-tests"): each value switches
/// one mechanism off so the history checker can prove it would catch that
/// mechanism's absence. Production configurations run kNone.
enum class Mutation : std::uint8_t {
  kNone,
  /// A standby re-applies replayed batches instead of dropping those whose
  /// sn does not exceed its current maximum, as if the serial-number
  /// suppression of Section III.C did not exist.
  kNoSnDedup,
  /// IO fencing is off: replication traffic from a deposed active is
  /// accepted, and an active that loses its session or the group lock
  /// keeps serving (the GC-paused active of the classic fencing scenario).
  kNoFencing,
  /// A standby serves reads regardless of the request's min_sn session
  /// floor, as if the session-consistency token did not exist: a lagging
  /// standby hands out state the client already wrote past. The checker
  /// turns standby reads on for it.
  kIgnoreMinSn,
  /// Shard migration runs its cutover without the write fence and without
  /// capturing deltas: writes the source accepts after the snapshot are
  /// acknowledged, never shipped, and vanish when the slot is dropped.
  kSkipCutoverFence,
  /// The active's lease revocation sends no push and installs no reply
  /// barrier, as if every remote holder had acked at once (a lost push):
  /// a conflicting mutation's ack races ahead of a client cache entry that
  /// keeps serving the old value until its TTL. The checker turns the
  /// client cache on for it.
  kIgnoreLeaseRevoke,
  /// A batch completes on the standby acks alone while its SSP copy is
  /// still in flight, as if the SSP were not a participant of the modified
  /// two-phase commit: a successor that drains the SSP (upgrade step 4)
  /// can come up below the committed watermark.
  kSspOffCommitPath,
};

/// Standby read offload (session-consistent reads against hot standbys).
/// The park limits are constants in mds_server.cpp.
struct StandbyReadOptions {
  /// Master switch: standbys answer GetFileInfo/ListDir instead of
  /// bouncing every client request to the active.
  bool serve_reads = false;
};

/// Lifetime of a client-cache directory lease. Also the backstop for lost
/// revocation acks: a conflicting mutation's reply is held at most this
/// long. TTLs are absolute virtual-time deadlines, so expiry is
/// deterministic and needs no clock-skew margin; what the margin must
/// cover instead is failover: a lease may never outlive its granter's
/// coordination session, or a successor active (which starts lease-free)
/// could commit conflicting mutations while a client still trusts its
/// cache. Grants are therefore issued only while `now + kLeaseTtl <= last
/// confirmed session contact + coord::kSessionTimeout`, a window that is
/// open only while the TTL stays below the session timeout.
inline constexpr SimTime kLeaseTtl = 2 * kSecond;
static_assert(kLeaseTtl < coord::kSessionTimeout,
              "a lease must be able to expire inside its granter's session");

/// Per-directory client cache leases issued by the active (off by default).
struct ClientLeaseOptions {
  /// Master switch: active-served GetFileInfo/ListDir replies carry a
  /// directory lease for the read's parent (stat) or target (listdir).
  bool grant_leases = false;
};

struct MdsOptions {
  GroupId group = 0;

  /// Seed namespace partition map (slot -> group routing truth at cluster
  /// birth); CfsCluster fills in PartitionMap::Seed(groups) when left
  /// empty. Servers adopt newer maps published through the coordination
  /// service; requests for slots the group does not own bounce with the
  /// server's current map attached.
  shard::PartitionMap partition_map;

  // Renewing protocol (Section III.D).
  SimTime renew_scan_period = 1 * kSecond;
  SerialNumber image_gap_threshold = 512;  ///< batches behind -> image first

  // Checkpointing.
  SimTime checkpoint_interval = 30 * kSecond;
  std::uint64_t image_chunk_bytes = 8u << 20;
  /// Multiplies the real serialized image size in the timing model, letting
  /// benches emulate the paper's multi-GB images without materializing
  /// millions of inodes (EXPERIMENTS.md, "image scaling"). 1 = honest.
  double image_inflation = 1.0;

  /// Session-consistent read offload to standbys (off by default; the
  /// paper's active serves all client traffic).
  StandbyReadOptions standby_reads;

  /// Client-cache directory leases (off by default).
  ClientLeaseOptions client_leases;

  /// The safety mechanism a checker self-test switches off; see Mutation.
  Mutation mutation = Mutation::kNone;
};

}  // namespace mams::core
