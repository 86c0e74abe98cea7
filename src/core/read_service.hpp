// ReadService — how a server answers reads, and the client-cache leases
// those reads hand out (docs/PROTOCOLS.md has the state machine). Rebuilt
// with its server on a crash.
//
// A standby answers a read once its applied sn reaches the client's
// session floor; one slightly ahead parks, one further ahead bounces.
// Parked reads belong to the standby role.
//
// Active-served reads, NotFound stats included, carry a per-(directory,
// client) lease and a fill: the page of the directory at the lease's
// version that answers for the read's name (a listing's is the first; a
// directory of at most kMaxFillChildren children is one whole page),
// built once per version and shared by every reply at it. A mutation
// (core::ForEachConflict names the directories it touches) of child
// `name` bumps the version and patches every holder with the child's new
// entry, or its absence, and the grants stay: a remote holder by a push,
// the requester by the same record riding its ack, so every holder
// updates its line in place instead of reading it again. A directory
// delete or rename, a shard install and a migration revoke whole grants,
// the requester's included. The mutation completes only once every remote holder acked or
// its grant expired. A grant past its deadline is dead and is reclaimed
// without a push. A holder's read may name its hot lines for renewal,
// each by the grant and version it holds: a grant still at that version
// lives another kLeaseTtl, one a patch moved on keeps its deadline. The grant table belongs to the active role; the
// barriers outlive a live step-down, since they hold committed work that
// acks or the TTL release in any role.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/messages.hpp"

namespace mams::core {

class MdsServer;

class ReadService {
 public:
  /// Children per lease fill page, and per charged listdir: HDFS's
  /// getListing page (`dfs.ls.limit`). A larger directory fills one page at
  /// a time.
  static constexpr std::size_t kMaxFillChildren = 1000;

  /// Lease ids never repeat, not even across a crash (a client may still
  /// hold a dead line for one): `last_lease_id` continues the sequence.
  ReadService(MdsServer& server, std::uint64_t last_lease_id)
      : s_(server), next_lease_id_(last_lease_id) {}
  ReadService(const ReadService&) = delete;
  ReadService& operator=(const ReadService&) = delete;
  std::uint64_t last_lease_id() const noexcept { return next_lease_id_; }

  /// A non-standby bounces its parked reads; a non-active drops its grants.
  void OnRole(ServerState role);
  /// Shard admission, then the lookup; the active attaches a lease.
  void Execute(const ClientRequestMsg& req, const ReplyFn& reply,
               bool from_standby = false);
  void HandleStandbyRead(const RequestPtr& req, const ReplyFn& reply);
  /// Serves the parked reads the applied sn now covers.
  void DrainParked();
  void FlushParked(const char* why);
  std::size_t parked_count() const noexcept { return parked_.size(); }

  /// A mutation's patches and revocations (core::ForEachConflict), with a
  /// barrier under `txid` when any remote holder exists; returns `reply`
  /// carrying the requester's own records.
  ReplyFn RevokeConflicting(const ClientRequestMsg& req, TxId txid,
                            ReplyFn reply);
  /// A shard install or removal at `path`: every holder is remote.
  void RevokeUnder(const std::string& path, TxId txid);
  /// Every grant under `slot`, barriered under `txid`: at a migration's
  /// cutover (under the migration id, a TxId like a mutation's), and where
  /// the slot's files are dropped (`parents`: the grants on the slot's
  /// directories' parents too, whose fills show the mtimes the drop moved).
  void RevokeSlot(std::uint32_t slot, TxId txid, bool parents = false);
  /// Runs `action` now, or holds it until `txid`'s barrier releases.
  void RunOrHoldOnBarrier(TxId txid, std::function<void()> action);
  /// `client`'s ack of the pushes it was sent (the envelope's sender).
  void HandleRevokeAck(NodeId client, const net::MessagePtr& msg);

 private:
  struct ParkedRead {
    RequestPtr req;
    ReplyFn reply;
    std::uint64_t token = 0;  ///< identifies the entry to its timeout timer
  };
  struct LeaseGrant {
    std::uint64_t id = 0;
    SimTime expire_at = 0;
  };
  /// One leased directory: its version, its live holders and the pages
  /// of it every reply at this version shares (each built on the first
  /// read it answers for, all dropped at the next version).
  struct LeasedDir {
    std::uint64_t version = 0;
    std::map<NodeId, LeaseGrant> holders;
    std::vector<std::shared_ptr<const DirSnapshot>> pages;
  };
  /// A grant's deadline as last seen; `Reclaim` re-queues an extended one.
  struct Expiry {
    SimTime at = 0;
    std::string dir;
    NodeId node = kInvalidNode;
    std::uint64_t id = 0;
    bool operator>(const Expiry& o) const { return at > o.at; }
  };
  struct LeaseBarrier {
    /// (client node, lease id, version) acks still missing.
    std::set<std::tuple<NodeId, std::uint64_t, std::uint64_t>> outstanding;
    /// Latest expire_at among the patched or revoked grants: past this
    /// instant no client can serve them anyway, so the barrier
    /// self-releases.
    SimTime release_at = 0;
    /// Deferred completions (client acks, cross-group legs) run on release.
    std::vector<std::function<void()>> held;
  };
  /// What one revocation round collects.
  struct Revocation {
    std::vector<LeaseRevocation> own;  ///< the requester's own records
    std::map<NodeId, std::vector<LeaseRevocation>> pushes;
    LeaseBarrier barrier;  ///< remote holders' acks to wait for
  };

  void ServeStandbyRead(const RequestPtr& req, const ReplyFn& reply);
  void BounceRead(const ReplyFn& reply, const char* why);
  /// Attaches a lease and the page that answers for the read's name to an
  /// active-served read; true when it did.
  bool MaybeGrantLease(const ClientRequestMsg& req, ClientResponseMsg& out);
  /// The gate of every grant and renewal: leases are on, this server is
  /// active, the client opted in, and a lease from now fits inside this
  /// server's coordination session.
  bool MayLease(const ClientRequestMsg& req) const;
  /// Extends each of `req`'s renewals whose grant is the one the line
  /// names, unexpired, at the version the line holds, to now + kLeaseTtl,
  /// and lists it in `out.renewed`.
  void Renew(const ClientRequestMsg& req, ClientResponseMsg& out);
  /// Drops every grant whose deadline has passed: no client serves it any
  /// more, so it needs no push and no barrier.
  void Reclaim();
  /// Child `name` of `dir` changed: bumps the version, drops the pages and
  /// patches every holder with the entry the tree now holds for `name`;
  /// `own`'s patch stays local, to ride its ack.
  void PatchDir(std::string_view dir, std::string_view name, NodeId own,
                Revocation& r);
  /// Drops every grant on directory `dir`: `own`'s ids stay local, every
  /// other holder gets a push and a place on the barrier.
  void RevokeDir(const std::string& dir, NodeId own, Revocation& r);
  /// RevokeDir over `path` itself and its subtree.
  void RevokeTree(std::string_view path, NodeId own, Revocation& r);
  /// Pushes the patches and revocations and installs the barrier under
  /// `txid`.
  void Revoke(Revocation r, TxId txid);
  void ReleaseBarrier(TxId txid, bool expired);

  MdsServer& s_;
  /// Keyed by the sn each read waits for.
  std::multimap<SerialNumber, ParkedRead> parked_;
  std::uint64_t parked_token_seq_ = 0;
  /// Leased directory -> version and holders. Never persisted or
  /// replicated: no grant outlives the granter's session (see kLeaseTtl).
  std::map<std::string, LeasedDir, std::less<>> grants_;
  std::size_t grant_count_ = 0;
  /// Min-heap (std::push_heap order) with one entry per live grant.
  std::vector<Expiry> expiries_;
  std::uint64_t next_lease_id_ = 0;
  /// By txid (or migration id). A crash drops them with their held
  /// replies, which clients retry anyway.
  std::map<TxId, LeaseBarrier> barriers_;
};

}  // namespace mams::core
