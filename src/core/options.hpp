// Tunables for a MAMS metadata server. Defaults mirror the paper's
// testbed (Section IV): 2 s heartbeats, 5 s session timeout, aggregated
// asynchronous journaling, SSP-backed synchronization.
#pragma once

#include "common/types.hpp"
#include "net/rpc.hpp"
#include "shard/partition_map.hpp"
#include "storage/ssp.hpp"

namespace mams::core {

struct OpCosts {
  // Pure CPU service time per operation at the metadata server, before
  // journaling/synchronization. Calibrated so a single server sustains on
  // the order of 10^4 metadata ops/s, as HDFS-class namenodes do.
  SimTime create = 45 * kMicrosecond;
  SimTime mkdir = 55 * kMicrosecond;
  SimTime remove = 60 * kMicrosecond;
  SimTime rename = 70 * kMicrosecond;
  SimTime getfileinfo = 18 * kMicrosecond;
  SimTime listdir = 30 * kMicrosecond;
  SimTime add_block = 30 * kMicrosecond;
  SimTime tx_participant = 25 * kMicrosecond;  ///< cross-group prepare leg
  SimTime block_report_per_1k = 150 * kMicrosecond;
  /// Journal replication fan-out: per-sync-target CPU on the active
  /// (serialize + checksum + send) — base charge plus streaming rate.
  SimTime sync_cpu_base = 25 * kMicrosecond;
  double sync_bytes_per_sec = 500.0e6;
};

/// Deliberate-fault switches for the checker's mutation self-tests
/// (tests/check_test.cpp): each hook disables one safety mechanism so the
/// history checker can prove it would catch that mechanism's absence.
/// Production configurations never set these.
struct TestHooks {
  /// Skip the standby-side "sn must exceed current maximum" duplicate
  /// check and re-apply replayed batches, as if the serial-number
  /// suppression of Section III.C did not exist.
  bool disable_sn_dedup = false;
  /// Skip the fence-token comparison on journal intake, as if IO fencing
  /// did not exist: a deposed active's replication traffic is accepted.
  bool disable_fencing = false;
  /// Standby serves reads regardless of the request's min_sn session floor,
  /// as if the session-consistency token did not exist: a lagging standby
  /// hands out stale state the client already wrote past.
  bool ignore_min_sn = false;
  /// Shard migration runs its cutover without the write fence (and without
  /// capturing the writes as deltas), as if the unavailability window did
  /// not exist: writes the source accepts during cutover never reach the
  /// destination and vanish when the slot is dropped.
  bool skip_cutover_fence = false;
};

/// Standby read offload (session-consistent reads against hot standbys).
struct StandbyReadOptions {
  /// Master switch: standbys answer GetFileInfo/ListDir instead of
  /// bouncing every client request to the active.
  bool serve_reads = false;
  /// A read whose min_sn is at most this many batches ahead of the
  /// standby's applied sn parks in a wait-queue until the gap closes;
  /// larger gaps bounce to the active immediately.
  SerialNumber max_park_gap = 64;
  /// Bound on the parked-read queue; overflow bounces.
  std::size_t max_parked = 64;
  /// A parked read that has not been satisfied after this long bounces to
  /// the active (the standby is lagging, not merely behind by one sync).
  SimTime max_park_wait = 500 * kMillisecond;
};

/// Per-directory client cache leases issued by the active (off by default).
/// TTLs are absolute virtual-time deadlines, so expiry is deterministic and
/// needs no clock-skew margin; what the margin must cover instead is
/// failover: a lease may never outlive its granter's coordination session,
/// or a successor active (which starts lease-free) could commit conflicting
/// mutations while a client still trusts its cache. Grants are therefore
/// issued only while `now + ttl <= last confirmed session contact +
/// session_timeout`, and `ttl` must stay below the coordination session
/// timeout (5 s) for that window to ever be open.
struct ClientLeaseOptions {
  /// Master switch: active-served GetFileInfo/ListDir replies carry a
  /// directory lease for the read's parent (stat) or target (listdir).
  bool grant_leases = false;
  /// Lease lifetime. Also the backstop for lost revocation acks: a
  /// conflicting mutation's reply is held at most this long.
  SimTime ttl = 2 * kSecond;
  /// Bound on outstanding (directory, client) grants; at the cap, reads
  /// are served without a lease rather than evicting someone else's.
  std::size_t max_grants = 4096;
};

struct MdsOptions {
  GroupId group = 0;

  /// Seed namespace partition map (slot -> group routing truth at cluster
  /// birth); CfsCluster fills in PartitionMap::Seed(groups) when left
  /// empty. Servers adopt newer maps published through the coordination
  /// service; requests for slots the group does not own bounce with the
  /// server's current map attached.
  shard::PartitionMap partition_map;

  // Coordination (paper Section IV.B).
  SimTime heartbeat_interval = 2 * kSecond;
  SimTime session_timeout = 5 * kSecond;

  // --- RPC policies (net/rpc.hpp) ----------------------------------------
  // One policy per call family; all retry behaviour is declared here
  // instead of hand-rolled timers at the call sites.

  /// Algorithm-1 election bids. Unlimited attempts paced like the paper's
  /// periodic lock polling; not idempotent because every bid redraws its
  /// random number and refreshes max_sn. The attempt timeout must ride out
  /// the coordination service's election window (2 s) plus the RPC budget.
  net::RpcPolicy election_bid{
      .attempt_timeout = 4 * kSecond,
      .max_attempts = 0,
      .backoff_base = 200 * kMillisecond,
      .backoff_multiplier = 1.0,
      .jitter = 0.0,
      .idempotent = false,
  };

  /// Pacing for re-running the whole join workflow (register + watch)
  /// after it is torn down mid-flight. The coordination client already
  /// retries the registration RPC itself, so this backoff only governs
  /// the rare outer loop that used to be a hardcoded 1 s timer.
  net::RpcPolicy join_retry{
      .attempt_timeout = 2 * kSecond,
      .max_attempts = 0,
      .backoff_base = kSecond,
      .backoff_multiplier = 2.0,
      .backoff_cap = 8 * kSecond,
      .jitter = 0.25,
  };

  // Journal synchronization. Batches seal whenever a 2PC window slot is
  // free (MdsServer::SealIfSlotFree); that is not a setting.

  /// Journal 2PC prepare to each standby: a single bounded attempt — an
  /// unresponsive standby is demoted and backfilled later, never waited
  /// for (that is what keeps sync latency flat in Fig. 5).
  net::RpcPolicy sync_rpc{
      .attempt_timeout = 1500 * kMillisecond,
      .max_attempts = 1,
  };

  storage::SspOptions ssp;
  /// When true (MAMS as specified) a batch completes only after the SSP
  /// copy is durable; false writes the SSP copy asynchronously (the
  /// ablation_ssp_vs_direct variant).
  bool ssp_in_commit_path = true;
  /// Retry cadence for re-appending a batch whose SSP copy failed, while
  /// its server stays active: the pool is the recovery source for
  /// failovers, so every batch later ones build on must become durable
  /// there.
  SimTime ssp_append_retry = 500 * kMillisecond;

  // Failover protocol.
  SimTime register_wait = 300 * kMillisecond;   ///< step-5 gather window
  /// Step-5 re-registration round: one attempt per peer inside the gather
  /// window — peers that miss it are picked up by the renewing scan.
  net::RpcPolicy register_rpc{
      .attempt_timeout = 250 * kMillisecond,
      .max_attempts = 1,
  };

  /// One-shot fetches (journal backfill, cross-group tx legs): callers
  /// have their own recovery story, so no retries here. The shard
  /// protocol's legs reuse its attempt timeout (src/core/mds_shard.cpp).
  net::RpcPolicy fetch_rpc{
      .attempt_timeout = kSecond,
      .max_attempts = 1,
  };

  // Renewing protocol (Section III.D).
  SimTime renew_scan_period = 1 * kSecond;
  SerialNumber image_gap_threshold = 512;  ///< batches behind -> image first
  SerialNumber final_sync_gap = 32;        ///< batches behind -> final stage
  SimTime renew_progress_interval = 200 * kMillisecond;

  /// Junior-side final-sync pulls against the active during renewing:
  /// retried until the junior catches up or the renew is abandoned.
  net::RpcPolicy renew_fetch_rpc{
      .attempt_timeout = kSecond,
      .max_attempts = 0,
      .backoff_base = 500 * kMillisecond,
      .backoff_multiplier = 1.0,
      .jitter = 0.0,
  };

  // Checkpointing.
  SimTime checkpoint_interval = 30 * kSecond;
  std::uint64_t image_chunk_bytes = 8u << 20;
  /// Multiplies the real serialized image size in the timing model, letting
  /// benches emulate the paper's multi-GB images without materializing
  /// millions of inodes (EXPERIMENTS.md, "image scaling"). 1 = honest.
  double image_inflation = 1.0;

  OpCosts costs;

  /// Session-consistent read offload to standbys (off by default; the
  /// paper's active serves all client traffic).
  StandbyReadOptions standby_reads;

  /// Client-cache directory leases (off by default).
  ClientLeaseOptions client_leases;

  /// Deliberate-fault switches for checker self-tests; see TestHooks.
  TestHooks test_hooks;
};

}  // namespace mams::core
