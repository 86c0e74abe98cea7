// FsClient — the file-system client library.
//
// Routing: the partition map assigns each path's slot to its owner group;
// the client caches each group's active server (and standby list) and
// talks to them directly. Servers bounce requests routed by a stale map
// epoch and attach their newer map; the client adopts it and re-routes —
// no coordination-service round trip on the fast path. Failover handling
// reproduces the paper's "client reconnection" stage (Figure 7): on an RPC
// timeout or a "not active" rejection the client invalidates its cache,
// polls the coordination service until the group view exposes a (new)
// active, pays a reconnection charge (TCP + session setup), and resends the
// request with the SAME ClientOpId — the server's duplicate suppression
// makes the retry idempotent, so an operation that committed just before
// the crash is acknowledged, not re-executed.
//
// Read offload: with ReadRouting::kRoundRobinStandby the client spreads
// GetFileInfo/ListDir round-robin over the group's live standbys. Session
// consistency rides the sn machinery: every response carries the
// responder's applied_sn, the client folds it into a per-group high-water
// token, and each read is stamped with that token as min_sn. A standby
// answers only once caught up to min_sn (parking briefly for small gaps),
// else it bounces the read and the client falls back to the active. A
// reply whose view epoch is older than the client's knowledge of the group
// comes from a deposed/renewing replica and is likewise retried at the
// active.
//
// Namespace cache: with ClientCacheOptions::enabled the client keeps one
// line per directory under a lease the active grants on its read replies.
// A leased reply carries the fill: the page of the directory (every
// child's attributes in one name range; a directory of up to 1,000
// children is one whole page) at the lease's version that answers for the
// read's name. The line keeps its pages as they came: a page at the line's
// own version joins it, replacing any page it overlaps and the patched
// children in its range, and one at a newer version or from a newer grant
// replaces them all. A change to child `name` arrives as a patch at the
// next version carrying `name`'s new entry, or its absence, and the line
// records it in place. A stat of a patched child answers from its entry;
// one of any other name a page covers is a hit, and one that page lacks
// answers NotFound. A listing hits while the line is one whole page: the
// page's names, with the patched children added or removed. The active
// alone decides what a mutation conflicts with (core::ForEachConflict): it
// pushes patches and revocations to the other holders and holds the
// mutation's ack until every holder acked (or the lease TTL), so no cache
// serves a change's old state once the change is acked anywhere. The
// mutator's own records ride its ack, and one function applies both: so
// a writer keeps its own lines, updated with each child it changed,
// and drops only the lines no patch record on an ok ack covers. A hit
// needs a live lease AND the line's `valid_sn` — the highest applied sn at
// which the active confirmed that version — at or above the directory's
// floor, the highest sn this session observed for the directory; it
// reports `valid_sn` as its applied sn. The floor is per directory, so a
// write elsewhere in the group costs this line nothing, while
// read-your-writes and monotonic reads hold per directory. Lines go when
// their lease dies. A revocation, a version gap, or a drop by the client
// itself (the lines its own mutation conflicts with that no record
// covers, an unleased reply) leaves a dead line: no page, only the
// grant's identity (epoch, lease id, version) for kLeaseTtl. A patch or
// revocation and an in-flight reply travel on different channels, and
// the dead line refuses every reply served before it died; past its
// deadline each of those is dead on arrival anyway. One wire read per
// directory refills it: a read bound for the active that misses while
// another read of its directory is on the wire waits for that reply, then
// tries the line once more, and goes to the wire only if it misses again.
// A line hit since its grant or last renewal is renewed in bulk, as Gray
// and Cheriton renew short leases: a read bound for the group's active
// names up to kMaxRenewals such lines within kRenewWindow of their
// deadline, by the grant identity each holds, and the active extends each
// grant still at that identity. A line is renewed only while it has fewer
// patched children than its pages hold, which bounds `patched` as the TTL
// does without renewal.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "coord/client.hpp"
#include "core/messages.hpp"
#include "core/options.hpp"
#include "fsns/path.hpp"
#include "net/host.hpp"
#include "net/rpc.hpp"
#include "shard/partition_map.hpp"

namespace mams::cluster {

/// Where reads are routed. Mutations always go to the active.
enum class ReadRouting : std::uint8_t {
  kActiveOnly = 0,       ///< paper baseline: the active serves everything
  kRoundRobinStandby,    ///< reads round-robin over live standbys
};

/// Lease-protected namespace cache (off by default). Pairs with the
/// server-side grant switch core::ClientLeaseOptions::grant_leases.
struct ClientCacheOptions {
  bool enabled = false;
};

struct FsClientOptions {
  SimTime rpc_timeout = 2 * kSecond;
  SimTime resolve_poll = 200 * kMillisecond;  ///< view polling backoff
  int max_attempts = 120;  ///< per op; ~ rpc_timeout * attempts budget
  ReadRouting read_routing = ReadRouting::kActiveOnly;
  ClientCacheOptions cache;
};

/// Per-read routing override (e.g. audit reads that must see the active's
/// authoritative state rather than a session-consistent standby view).
struct ReadOptions {
  bool require_active = false;
};

/// Session-consistency metadata of the most recently completed op (set
/// just before its callback runs). Closed-loop harnesses — the history
/// recorder, benches — read this to tag the op they just observed.
struct OpStamp {
  SerialNumber applied_sn = 0;  ///< responder's applied sn (0: no response)
  SerialNumber min_sn = 0;      ///< session floor the request carried
  bool via_standby = false;     ///< final answer came from a standby
  bool via_cache = false;       ///< served locally from the lease cache
  NodeId server = kInvalidNode; ///< responder (kInvalidNode for cache hits)
};

/// Unit payload for acknowledged mutations: Result<Ack> is "committed" or
/// an error, with no further data to decode.
struct Ack {};

class FsClient : public net::Host {
 public:
  using OpCallback = std::function<void(Status)>;
  using InfoCallback = std::function<void(Result<fsns::FileInfo>)>;
  using ListCallback = std::function<void(Result<std::vector<std::string>>)>;

  FsClient(net::Network& network, std::string name, NodeId coord,
           shard::PartitionMap map, FsClientOptions options = {})
      : net::Host(network, std::move(name)),
        map_(std::move(map)),
        options_(options),
        rng_(network.sim().rng().Fork(Fnv1a(this->name()) | 2)) {
    coord_client_ = std::make_unique<coord::CoordClient>(*this, coord);
    auto& metrics = sim().obs().metrics();
    m_cache_hits_ = metrics.counter("client.cache_hits");
    m_cache_misses_ = metrics.counter("client.cache_misses");
    m_cache_miss_reasons_[kNoLine] = metrics.counter("client.cache_miss_no_line");
    m_cache_miss_reasons_[kDeadLine] =
        metrics.counter("client.cache_miss_dead_line");
    m_cache_miss_reasons_[kNoEntry] =
        metrics.counter("client.cache_miss_no_entry");
    m_cache_miss_reasons_[kExpired] =
        metrics.counter("client.cache_miss_expired");
    m_cache_miss_reasons_[kBelowFloor] =
        metrics.counter("client.cache_miss_below_floor");
    m_cache_miss_reasons_[kOffPage] =
        metrics.counter("client.cache_miss_off_page");
    m_cache_refill_waits_ = metrics.counter("client.cache_refill_waits");
    m_cache_revocations_ = metrics.counter("client.cache_revocations");
    m_cache_patches_ = metrics.counter("client.cache_patches");
    m_cache_expiries_ = metrics.counter("client.cache_expiries");
    m_cache_renewals_ = metrics.counter("client.cache_renewals");
    m_cache_renewals_applied_ =
        metrics.counter("client.cache_renewals_applied");
    OnRequest(net::kLeaseRevoke,
              [this](const net::Envelope& env, const net::MessagePtr& msg,
                     const net::Host::ReplyFn&) {
                HandleLeaseRevoke(env.from, msg);
              });
  }

  const shard::PartitionMap& partition_map() const noexcept { return map_; }

  /// Session metadata of the last completed op; see OpStamp.
  const OpStamp& last_stamp() const noexcept { return last_stamp_; }
  /// Live directory lines in the lease cache.
  std::size_t cached_dirs() const noexcept { return live_lines_; }
  /// Every line the lease cache holds, live and dead.
  std::size_t cache_lines() const noexcept { return cache_.size(); }
  /// The pages `dir`'s line serves from; none without a live line.
  std::vector<std::shared_ptr<const core::DirSnapshot>> cached_pages(
      std::string_view dir) const {
    auto it = cache_.find(dir);
    if (it == cache_.end()) return {};
    return it->second.pages;
  }
  /// This client's high-water applied sn for `group` (its session token).
  SerialNumber session_sn(GroupId group) const {
    auto it = session_sn_.find(group);
    return it == session_sn_.end() ? 0 : it->second;
  }

  // --- metadata operations ---------------------------------------------------
  void Create(const std::string& path, OpCallback done,
              std::uint32_t replication = 3) {
    auto req = NewRequest(core::ClientOp::kCreate, path);
    req->replication = replication;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void Mkdir(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kMkdir, path),
               Acked(std::move(done)));
  }

  void Delete(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kDelete, path),
               Acked(std::move(done)));
  }

  void Rename(const std::string& src, const std::string& dst,
              OpCallback done) {
    auto req = NewRequest(core::ClientOp::kRename, src);
    req->path2 = dst;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void GetFileInfo(const std::string& path, InfoCallback done,
                   ReadOptions ro = {}) {
    Issue<fsns::FileInfo>(NewRequest(core::ClientOp::kGetFileInfo, path),
                          std::move(done), ro);
  }

  void ListDir(const std::string& path, ListCallback done,
               ReadOptions ro = {}) {
    Issue<std::vector<std::string>>(NewRequest(core::ClientOp::kListDir, path),
                                    std::move(done), ro);
  }

  void AddBlock(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kAddBlock, path),
               Acked(std::move(done)));
  }

  void SetReplication(const std::string& path, std::uint32_t replication,
                      OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetReplication, path);
    req->replication = replication;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetOwner(const std::string& path, const std::string& owner,
                OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetOwner, path);
    req->owner = owner;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetPermission(const std::string& path, std::uint16_t permission,
                     OpCallback done) {
    auto req = NewRequest(core::ClientOp::kSetPermission, path);
    req->permission = permission;
    Issue<Ack>(std::move(req), Acked(std::move(done)));
  }

  void SetTimes(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kSetTimes, path),
               Acked(std::move(done)));
  }

  void CompleteFile(const std::string& path, OpCallback done) {
    Issue<Ack>(NewRequest(core::ClientOp::kCompleteFile, path),
               Acked(std::move(done)));
  }

  struct Counters {
    std::uint64_t reads_offloaded = 0;   ///< read attempts sent to a standby
    std::uint64_t read_bounces = 0;      ///< standby declined (behind floor)
    std::uint64_t read_fallbacks = 0;    ///< standby unresponsive/unavailable
    std::uint64_t shard_bounces = 0;     ///< re-routed after a map update
    // Lease-protected namespace cache.
    std::uint64_t cache_hits = 0;        ///< reads served locally
    std::uint64_t cache_misses = 0;      ///< reads that went to the wire
    std::uint64_t cache_refill_waits = 0;  ///< misses that waited on a refill
    std::uint64_t cache_revocations = 0; ///< revocations pushed or acked
    std::uint64_t cache_patches = 0;     ///< patches applied to a line
    std::uint64_t cache_expiries = 0;    ///< leases dropped at their TTL
  };
  const Counters& counters() const noexcept { return counters_; }

 protected:
  void OnCrash() override {
    net::Host::OnCrash();
    coord_client_->Stop();
    targets_.clear();
    // The session dies with the process: a restarted client starts a new
    // session with an empty read floor — and an empty cache (its leases are
    // unreachable for revocation pushes once the process is gone; the
    // granter's TTL covers them).
    session_sn_.clear();
    cache_.clear();
    renewable_.clear();
    live_lines_ = 0;
    sweep_armed_ = false;  // its timer dies with the incarnation
    refills_.clear();      // and so do the reads waiting on a refill
    last_stamp_ = OpStamp{};
  }

 private:
  using RespPtr = std::shared_ptr<const core::ClientResponseMsg>;
  using RawCallback = std::function<void(Result<RespPtr>)>;

  /// Per-group routing targets learned from the last view resolution,
  /// refreshed whenever an exchange fails and the view is re-polled.
  struct GroupTargets {
    NodeId active = kInvalidNode;
    std::vector<NodeId> standbys;
    FenceToken epoch = 0;  ///< highest view epoch observed for the group
  };

  std::shared_ptr<core::ClientRequestMsg> NewRequest(core::ClientOp op,
                                                     const std::string& path) {
    auto req = std::make_shared<core::ClientRequestMsg>();
    req->op = op;
    req->path = path;
    req->client = {.client_id = static_cast<std::uint64_t>(id()) + 1,
                   .op_seq = ++op_seq_};
    // Opting into the lease protocol: reads become grant-eligible, and the
    // server classifies this client's own grants as "own" on its mutations
    // (their revocations ride the ack instead of a push round-trip).
    if (options_.cache.enabled) req->requester = id();
    return req;
  }

  /// The one response-decode point: every op's wire payload becomes a
  /// typed Result<T> here (Ack for plain mutations, FileInfo / listings
  /// for the reads), so no caller unwraps resp.ok/resp.code by hand.
  template <typename T>
  static Result<T> Decode(const core::ClientResponseMsg& resp) {
    if (!resp.ok) return Status(resp.code, resp.error);
    if constexpr (std::is_same_v<T, Ack>) {
      return Ack{};
    } else if constexpr (std::is_same_v<T, fsns::FileInfo>) {
      return resp.info;
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      return resp.listing;
    } else {
      static_assert(!sizeof(T), "no decoder for this payload type");
    }
  }

  /// Adapts a Status-only completion to the typed pipeline.
  static std::function<void(Result<Ack>)> Acked(OpCallback done) {
    return [done = std::move(done)](Result<Ack> r) { done(r.status()); };
  }

  struct OpState {
    std::shared_ptr<core::ClientRequestMsg> request;
    RawCallback done;
    GroupId group = 0;
    int attempts = 1;
    bool require_active = false;  ///< never offload this read
    bool force_active = false;    ///< offload failed once; stay on active
    bool via_standby = false;     ///< current attempt targets a standby
    bool via_cache = false;       ///< answered locally from the lease cache
    bool refills = false;  ///< its reply releases its directory's waiters
    bool waited = false;   ///< waited once on another read's refill
    bool renewals_picked = false;  ///< named its renewals (resends keep them)
    NodeId target = kInvalidNode;
  };

  template <typename T>
  void Issue(std::shared_ptr<core::ClientRequestMsg> req,
             std::function<void(Result<T>)> done, ReadOptions ro = {}) {
    auto state = std::make_shared<OpState>();
    state->group = RouteGroup(*req);
    state->request = std::move(req);
    state->require_active = ro.require_active;
    if (!core::IsMutation(state->request->op)) {
      // Session floor fixed at issue time (the shared request must not
      // mutate between resends): the standby may answer once it has
      // applied everything this client has already been acked.
      state->request->min_sn = session_sn(state->group);
    }
    state->done = [done = std::move(done)](Result<RespPtr> r) {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      done(Decode<T>(*r.value()));
    };
    if (TryServeFromCache(state)) return;
    Attempt(state);
  }

  bool Offloadable(const OpState& state) const {
    return options_.read_routing == ReadRouting::kRoundRobinStandby &&
           !core::IsMutation(state.request->op) && !state.require_active &&
           !state.force_active;
  }

  void Attempt(const std::shared_ptr<OpState>& state) {
    if (state->attempts > options_.max_attempts) {
      Finish(state, Status::Unavailable("retries exhausted"));
      return;
    }
    const GroupTargets* targets = FindTargets(state->group);
    if (targets == nullptr || targets->active == kInvalidNode) {
      Resolve(state);
      return;
    }
    NodeId target = targets->active;
    state->via_standby = false;
    if (Offloadable(*state) && !targets->standbys.empty()) {
      target = targets->standbys[rr_++ % targets->standbys.size()];
      state->via_standby = true;
      ++counters_.reads_offloaded;
    }
    state->target = target;
    if (!state->via_standby && !state->renewals_picked &&
        options_.cache.enabled && !core::IsMutation(state->request->op)) {
      // A standby holds no grants: only a read to the active carries them.
      state->renewals_picked = true;
      TakeRenewals(state->group, *state->request);
    }
    // One bounded send per cached target: a failed exchange re-resolves
    // the active through the coordination service before resending, so
    // the retry loop lives in Resolve's view-poll policy, not here. The
    // resend carries the SAME ClientOpId — the server's duplicate
    // suppression makes it idempotent end to end.
    net::RpcPolicy policy;
    policy.attempt_timeout = options_.rpc_timeout;
    policy.max_attempts = 1;
    net::RpcCall::Start(
        *this, target, state->request, policy,
        [this, state, target](Result<net::MessagePtr> r) {
          if (state->via_standby) {
            OnStandbyReadResult(state, std::move(r));
            return;
          }
          if (!r.ok()) {
            // Timeout: the active may be gone. Re-resolve and resend.
            InvalidateActive(state->group, target);
            ++state->attempts;
            Resolve(state);
            return;
          }
          auto resp = std::static_pointer_cast<const core::ClientResponseMsg>(
              std::move(r).value());
          if (!resp->ok && resp->shard_bounce) {
            // The slot moved to another group: adopt the responder's map
            // and re-route. The active itself is healthy — do not
            // invalidate it.
            OnShardBounce(state, *resp);
            return;
          }
          if (resp->from_standby ||
              (!resp->ok && resp->code == StatusCode::kUnavailable)) {
            // "not active" — the group is failing over, or the cached
            // active was deposed and answers as a standby now.
            InvalidateActive(state->group, target);
            ++state->attempts;
            Resolve(state);
            return;
          }
          Finish(state, std::move(resp));
        });
  }

  /// A standby exchange never invalidates the cached active: whatever went
  /// wrong (lagging standby, deposed replica, dead node) the recovery is
  /// the same — retry this read against the active.
  void OnStandbyReadResult(const std::shared_ptr<OpState>& state,
                           Result<net::MessagePtr> r) {
    auto fall_back = [this, state] {
      state->force_active = true;
      ++state->attempts;
      Attempt(state);
    };
    if (!r.ok()) {
      ++counters_.read_fallbacks;
      fall_back();
      return;
    }
    auto resp = std::static_pointer_cast<const core::ClientResponseMsg>(
        std::move(r).value());
    auto it = targets_.find(state->group);
    const FenceToken known_epoch = it == targets_.end() ? 0 : it->second.epoch;
    if (resp->group_epoch < known_epoch) {
      // Deposed or renewing replica: its view predates what this client
      // already learned from the coordination service. Its answer may be
      // arbitrarily stale; drop it.
      fall_back();
      return;
    }
    if (it != targets_.end() && resp->group_epoch > it->second.epoch) {
      it->second.epoch = resp->group_epoch;
    }
    if (!resp->ok && resp->shard_bounce) {
      OnShardBounce(state, *resp);
      return;
    }
    if (!resp->ok && resp->code == StatusCode::kUnavailable) {
      // Behind the session floor, overloaded, or no longer a standby.
      ++counters_.read_bounces;
      fall_back();
      return;
    }
    Finish(state, std::move(resp));
  }

  /// The request hit a group that no longer owns its path's shard. Adopt
  /// the responder's (newer) map, re-route, and resend with the SAME
  /// ClientOpId. A bounce with no newer map means the migration is mid
  /// hand-off (cut over but not yet published everywhere) — back off one
  /// poll interval instead of spinning on the old owner.
  void OnShardBounce(const std::shared_ptr<OpState>& state,
                     const core::ClientResponseMsg& resp) {
    ++counters_.shard_bounces;
    ++state->attempts;
    bool newer = false;
    if (resp.map_epoch > map_.epoch()) {
      auto m = shard::PartitionMap::Deserialize(resp.map_bytes);
      if (m.ok()) {
        map_ = std::move(m).value();
        newer = true;
      }
    }
    const GroupId group = RouteGroup(*state->request);
    if (group != state->group) {
      state->group = group;
      if (!core::IsMutation(state->request->op)) {
        // New responder group, new session floor. Safe to restamp: only
        // one attempt is ever in flight.
        state->request->min_sn = session_sn(group);
      }
    }
    if (newer) {
      Attempt(state);
    } else {
      AfterLocal(options_.resolve_poll, [this, state] { Attempt(state); });
    }
  }

  // --- lease-protected namespace cache ---------------------------------------

  /// One directory's line. A live line serves its pages, updated by the
  /// children patched since, under its lease. A dead line has no page: it
  /// keeps its grant's identity until `expire_at`, to refuse the replies
  /// served before it died.
  struct DirCache {
    FenceToken epoch = 0;  ///< granter's view epoch, stamped onto hits
    std::uint64_t lease_id = 0;
    std::uint64_t version = 0;
    /// Highest applied sn at which the active confirmed (lease_id,
    /// version): no child changed between two such replies.
    SerialNumber valid_sn = 0;
    /// Highest sn this session observed for the directory (the group-wide
    /// token when the line was made, an upper bound of it). A hit needs
    /// valid_sn >= floor.
    SerialNumber floor = 0;
    /// Absolute virtual time: the lease's deadline while live, the
    /// identity's once dead.
    SimTime expire_at = 0;
    /// Pages of the directory at `version` or older, with disjoint ranges,
    /// as leased replies brought them; each shared with every other line
    /// and reply filled at its version. None: a dead line.
    std::vector<std::shared_ptr<const core::DirSnapshot>> pages;
    /// The children patched since the pages, by name: each one's entry at
    /// `version`, or none when the patch removed it.
    std::map<std::string, std::optional<fsns::FileInfo>, std::less<>> patched;
    GroupId group = 0;  ///< the group whose active granted it
    /// Hit since its grant or its last renewal: a renewal candidate, filed
    /// in its group's renewal index.
    bool hit = false;

    bool live() const noexcept { return !pages.empty(); }
    /// Grants are ordered by (epoch, lease id), a grant's changes by
    /// version: a reply below this was served before what the line knows.
    auto identity() const noexcept {
      return std::tie(epoch, lease_id, version);
    }
  };
  using CacheMap = std::map<std::string, DirCache, std::less<>>;

  /// The directory a read's answer lives under: the listing's own path, or
  /// the stat target's parent — matching the server's grant key.
  static std::string_view CacheDirOf(const core::ClientRequestMsg& req) {
    return req.op == core::ClientOp::kListDir ? std::string_view(req.path)
                                              : fsns::ParentDir(req.path);
  }

  enum MissReason : std::uint8_t {
    kNoLine, kDeadLine, kNoEntry, kExpired, kBelowFloor, kOffPage,
    kMissReasons
  };

  /// Serves the read locally when a live lease covers it AND the line
  /// meets its directory's session floor — so a hit never shows this
  /// session less of the directory than it already saw. A read bound for
  /// the active that misses while another read of its directory is on the
  /// wire waits for that reply instead, once, and then tries again (see
  /// ReleaseWaiters). Returns false to fall through to the wire.
  bool TryServeFromCache(const std::shared_ptr<OpState>& state) {
    core::ClientRequestMsg& req = *state->request;
    if (!options_.cache.enabled || core::IsMutation(req.op) ||
        state->require_active) {
      return false;
    }
    const std::string_view dir = CacheDirOf(req);
    auto miss = [&](MissReason why) {
      if (!Offloadable(*state)) {
        auto refill = refills_.find(dir);
        if (refill == refills_.end()) {
          refills_.emplace(std::string(dir), Waiters{});
          state->refills = true;
        } else if (!state->waited) {
          state->waited = true;
          ++counters_.cache_refill_waits;
          m_cache_refill_waits_->Add();
          refill->second.push_back(state);
          return true;
        }
      }
      ++counters_.cache_misses;
      m_cache_misses_->Add();
      m_cache_miss_reasons_[why]->Add();
      return false;
    };
    auto it = cache_.find(dir);
    if (it == cache_.end()) return miss(kNoLine);
    if (!it->second.live()) return miss(kDeadLine);
    DirCache& dc = it->second;
    if (sim().Now() >= dc.expire_at) {
      // TTL: the lease is dead whether or not a revocation ever reached us
      // (this is the backstop for a lost push — and the window the
      // lease_revoke mutation exploits).
      ++counters_.cache_expiries;
      m_cache_expiries_->Add();
      --live_lines_;
      cache_.erase(it);
      return miss(kExpired);
    }
    if (dc.valid_sn < dc.floor) return miss(kBelowFloor);
    auto resp = std::make_shared<core::ClientResponseMsg>();
    resp->ok = true;
    if (req.op == core::ClientOp::kListDir) {
      if (!dc.pages[0]->whole()) return miss(kNoEntry);
      // The page's names, with the patched children added or removed.
      std::vector<std::string>& names = resp->listing = dc.pages[0]->Names();
      for (const auto& [name, entry] : dc.patched) {
        auto at = std::lower_bound(names.begin(), names.end(), name);
        const bool listed = at != names.end() && *at == name;
        if (entry && !listed) names.insert(at, name);
        if (!entry && listed) names.erase(at);
      }
    } else {
      const std::string_view name = fsns::BaseName(req.path);
      if (!fsns::IsValidPath(req.path)) return miss(kNoEntry);
      // A patched child answers from its entry, any other from the page
      // that covers it.
      auto patched = dc.patched.find(name);
      std::optional<fsns::FileInfo> entry;
      if (patched != dc.patched.end()) {
        entry = patched->second;
      } else {
        auto page = std::find_if(
            dc.pages.begin(), dc.pages.end(),
            [name](const auto& p) { return p->Covers(name); });
        if (page == dc.pages.end()) return miss(kOffPage);
        const std::size_t i = (*page)->Find(name);
        if (i < (*page)->size()) entry = (*page)->Info(i, {});
      }
      if (entry) {
        resp->info = std::move(*entry);
        resp->info.path = req.path;
      } else {
        resp->ok = false;
        resp->code = StatusCode::kNotFound;
        resp->error = req.path;
      }
    }
    resp->group_epoch = dc.epoch;
    resp->applied_sn = dc.valid_sn;
    req.min_sn = dc.floor;  // the floor this hit met, for the stamp
    if (!dc.hit) {
      dc.hit = true;
      renewable_[dc.group].emplace(dc.expire_at, it->first);
    }
    ++counters_.cache_hits;
    m_cache_hits_->Add();
    state->via_cache = true;
    AfterLocal(kCacheHitLatency,
               [this, state, resp] { Finish(state, RespPtr(resp)); });
    return true;
  }

  /// Folds a wire read's reply into its directory's line: a standby's
  /// answer raises the floor, an active's leased answer is adopted, and an
  /// unleased one ends the line (it may show a change the line cannot
  /// prove it lacks).
  void ObserveRead(const std::shared_ptr<OpState>& state,
                   const core::ClientResponseMsg& resp) {
    auto it = cache_.find(CacheDirOf(*state->request));
    if (state->via_standby) {
      if (it != cache_.end())
        it->second.floor = std::max(it->second.floor, resp.applied_sn);
      return;
    }
    if (resp.lease_id != 0) {
      AdoptLease(state, resp);
    } else if (it != cache_.end()) {
      DropLine(it->second, /*past_version=*/true);
    }
  }

  void AdoptLease(const std::shared_ptr<OpState>& state,
                  const core::ClientResponseMsg& resp) {
    auto it = cache_.find(resp.lease_dir);
    if (it != cache_.end())
      it->second.floor = std::max(it->second.floor, resp.applied_sn);
    // Dead on arrival: nothing it says may be served.
    if (resp.lease_expire_at <= sim().Now()) return;
    // Older than the line, live or dead: served before a patch or
    // revocation this client already applied. The two travel on different
    // channels, and the newer knowledge wins whichever arrived first.
    if (it != cache_.end() &&
        std::tie(resp.lease_epoch, resp.lease_id, resp.lease_version) <
            it->second.identity()) {
      return;
    }
    const bool live = it != cache_.end() && it->second.live();
    if (!live) {
      // At the cap a new directory is not cached, as the active's grant
      // table refuses a grant at its own.
      if (live_lines_ >= kMaxCachedDirs) return;
      if (it == cache_.end())
        it = cache_.emplace(resp.lease_dir, DirCache{}).first;
      ++live_lines_;
      ArmSweep();
    }
    DirCache& dc = it->second;
    if (!live || std::tie(dc.epoch, dc.lease_id) !=
                     std::tie(resp.lease_epoch, resp.lease_id)) {
      // A new line, or a newer grant: the line starts over. A new line's
      // floor is the group's session token, an upper bound of the
      // directory's.
      const SerialNumber floor = live ? dc.floor : session_sn(state->group);
      dc = DirCache{};
      dc.epoch = resp.lease_epoch;
      dc.lease_id = resp.lease_id;
      dc.floor = floor;
      dc.group = state->group;
    } else if (resp.lease_version > dc.version) {
      dc.valid_sn = 0;  // `valid_sn` confirmed the line's older version
      dc.pages.clear();
      dc.patched.clear();
    }
    dc.version = resp.lease_version;
    dc.valid_sn = std::max(dc.valid_sn, resp.applied_sn);
    // The server's recorded deadline is monotone per grant, so a reordered
    // pair of replies must not shorten the lease.
    dc.expire_at = std::max(dc.expire_at, resp.lease_expire_at);
    // The page shows its range at the line's version, every patch up to
    // it included. At a newer version or grant the line kept no page and
    // no patched child: the other pages' ranges may hide changes whose
    // patches it still lacks.
    const core::DirSnapshot& page = *resp.fill;
    std::erase_if(dc.pages, [&](const auto& p) { return p->Overlaps(page); });
    dc.pages.push_back(resp.fill);
    std::erase_if(dc.patched,
                  [&](const auto& p) { return page.Covers(p.first); });
  }

  /// Applies one record from the active that granted the lease: pushed, or
  /// riding this client's own ack. A patch at a live line's next version
  /// records its child's new entry, or its absence. A revocation, a gap
  /// (an earlier patch is lost or still in flight), no line, or a newer
  /// grant than the line's (the active holds one grant per directory and
  /// client, so the line's is dead there) leaves a dead line at the
  /// record's grant and version.
  /// A record for an older grant, or one the line knows, changes nothing.
  void ApplyRecord(const core::LeaseRevocation& rec) {
    if (rec.version == core::kLeaseRevoked) {
      ++counters_.cache_revocations;
      m_cache_revocations_->Add();
    }
    auto [it, fresh] = cache_.try_emplace(rec.dir);
    DirCache& dc = it->second;
    const auto grant = std::tie(rec.epoch, rec.lease_id);
    const auto held = std::tie(dc.epoch, dc.lease_id);
    if (!fresh) {
      if (grant < held || (grant == held && rec.version <= dc.version)) return;
      if (grant == held && dc.live() && rec.version == dc.version + 1) {
        ++counters_.cache_patches;
        m_cache_patches_->Add();
        dc.version = rec.version;
        dc.expire_at = std::max(dc.expire_at, rec.expire_at);
        dc.patched[rec.name] = rec.entry;
        return;
      }
    }
    dc.epoch = rec.epoch;
    dc.lease_id = rec.lease_id;
    Kill(dc, rec.version);
  }

  /// Names in `request` up to kMaxRenewals of `group`'s lines due for
  /// renewal: walks the group's renewal index in deadline order up to
  /// now + kRenewWindow, dropping each entry it passes. A line is due when
  /// it is live, hit, unexpired, still at the deadline it was filed
  /// under, and has fewer patched children than its pages hold; every
  /// line passed stops being hit, so a later hit files it again, at the
  /// deadline it then has (a fresh reply or a patch may have moved it).
  void TakeRenewals(GroupId group, core::ClientRequestMsg& request) {
    auto index = renewable_.find(group);
    if (index == renewable_.end()) return;
    RenewIndex& lines = index->second;
    std::vector<core::LeaseRenewal>& out = request.renewals;
    const SimTime now = sim().Now();
    for (auto it = lines.begin(); it != lines.end() &&
                                  it->first <= now + kRenewWindow &&
                                  out.size() < kMaxRenewals;
         it = lines.erase(it)) {
      auto line = cache_.find(it->second);
      // Filed before the line started over under another group's grant.
      if (line == cache_.end() || line->second.group != group) continue;
      DirCache& dc = line->second;
      std::size_t children = 0;
      for (const auto& page : dc.pages) children += page->size();
      if (dc.hit && dc.expire_at == it->first && dc.expire_at > now &&
          dc.patched.size() < children) {
        out.push_back({line->first, dc.epoch, dc.lease_id, dc.version});
      }
      dc.hit = false;
    }
    m_cache_renewals_->Add(out.size());
  }

  /// Extends each line the active renewed, while it still holds the grant
  /// identity the request named.
  void ApplyRenewals(const core::ClientRequestMsg& req,
                     const core::ClientResponseMsg& resp) {
    for (std::uint32_t i : resp.renewed) {
      const core::LeaseRenewal& r = req.renewals.at(i);
      auto it = cache_.find(r.dir);
      if (it == cache_.end() || !it->second.live() ||
          it->second.identity() != std::tie(r.epoch, r.lease_id, r.version)) {
        continue;
      }
      it->second.expire_at = std::max(it->second.expire_at, resp.renewed_until);
      m_cache_renewals_applied_->Add();
    }
  }

  /// `state`'s wire read of its directory is over, and its reply adopted:
  /// each read that waited on it tries the cache again, as a hit taken
  /// after the reply would, and goes to the wire if it misses again.
  void ReleaseWaiters(OpState& state) {
    state.refills = false;
    auto it = refills_.find(CacheDirOf(*state.request));
    const Waiters waiters = std::move(it->second);
    refills_.erase(it);
    for (const auto& waiter : waiters) {
      if (!TryServeFromCache(waiter)) Attempt(waiter);
    }
  }

  /// Drops a live line while its lease may live on: the dead line keeps
  /// its version, so a reply served before the patches the line applied
  /// stays out. `past_version`: the client saw a change the line's version
  /// may not cover yet, so replies at that version stay out too.
  void DropLine(DirCache& dc, bool past_version = false) {
    if (dc.live()) Kill(dc, dc.version + (past_version ? 1 : 0));
  }

  /// Turns `dc` into a dead line at `version` of its grant for kLeaseTtl:
  /// every reply it must refuse was served before now, so it is dead on
  /// arrival past that.
  void Kill(DirCache& dc, std::uint64_t version) {
    if (dc.live()) --live_lines_;
    dc.version = version;
    dc.expire_at = sim().Now() + core::kLeaseTtl;
    dc.pages.clear();
    dc.patched.clear();
    ArmSweep();
  }

  /// Read-your-writes: before a mutation's callback runs, every line it
  /// conflicts with — by the active's own rule — is dropped, on errors,
  /// indeterminate outcomes and resends too, since the mutation may still
  /// have committed. A writer keeps a line where a patch record on `ack`
  /// (an ok ack to the mutation's only send) covers the child: applying
  /// the record already updated the child's entry, or killed the line.
  void InvalidateForMutation(const core::ClientRequestMsg& req,
                             const core::ClientResponseMsg* ack) {
    auto patched = [ack](std::string_view dir, std::string_view name) {
      return ack != nullptr &&
             std::any_of(ack->revocations.begin(), ack->revocations.end(),
                         [&](const core::LeaseRevocation& rec) {
                           return rec.version != core::kLeaseRevoked &&
                                  rec.dir == dir && rec.name == name;
                         });
    };
    core::ForEachConflict(
        req,
        [&](std::string_view dir, std::string_view name) {
          if (patched(dir, name)) return;
          auto it = cache_.find(dir);
          if (it != cache_.end()) DropLine(it->second);
        },
        [this](std::string_view path) {
          // `path` itself and any cached directory beneath it. The
          // string-prefix region is contiguous in the sorted map;
          // IsPrefixPath filters siblings ("/a/bc") that share the byte
          // prefix of "/a/b".
          for (auto it = cache_.lower_bound(path);
               it != cache_.end() &&
               it->first.compare(0, path.size(), path) == 0;
               ++it) {
            if (fsns::IsPrefixPath(path, it->first)) DropLine(it->second);
          }
        });
  }

  /// Patches and revocations from the `active` that granted the leases.
  /// Each is acked to it — the acks release the conflicting mutation's
  /// reply barrier at the granter.
  void HandleLeaseRevoke(NodeId active, const net::MessagePtr& msg) {
    const auto& push = net::Cast<core::LeaseRevokeMsg>(msg);
    auto ack = std::make_shared<core::LeaseRevokeAckMsg>();
    ack->leases.reserve(push.leases.size());
    for (const core::LeaseRevocation& rec : push.leases) {
      ack->leases.emplace_back(rec.lease_id, rec.version);
      ApplyRecord(rec);
    }
    if (!ack->leases.empty()) Send(active, std::move(ack));
  }

  /// A line goes when its lease dies, read again or not, and a dead line
  /// at its deadline: one timer per client, armed while the cache holds a
  /// line, live or dead, sweeps both.
  void ArmSweep() {
    if (sweep_armed_) return;
    sweep_armed_ = true;
    AfterLocal(kSweepPeriod, [this] {
      sweep_armed_ = false;
      const SimTime now = sim().Now();
      for (auto it = cache_.begin(); it != cache_.end();) {
        if (it->second.expire_at > now) {
          ++it;
          continue;
        }
        if (it->second.live()) {
          ++counters_.cache_expiries;
          m_cache_expiries_->Add();
          --live_lines_;
        }
        it = cache_.erase(it);
      }
      if (!cache_.empty()) ArmSweep();
    });
  }

  /// The group a request is sent to, by the slot the server admits it by
  /// (ShardAdmitRead/ShardAdmitMutation): a listing enumerates children
  /// that hash by the directory itself; every other op names an entry that
  /// hashes by its parent.
  GroupId RouteGroup(const core::ClientRequestMsg& req) const {
    return req.op == core::ClientOp::kListDir ? map_.OwnerOfDir(req.path)
                                              : map_.OwnerOf(req.path);
  }

  /// Polls the coordination service until the group exposes an active,
  /// then pays the reconnection charge and resends. Each fruitless poll
  /// consumes an attempt, so a client configured with max_attempts = 1
  /// fails fast during an outage — that is how the MTTR benches observe
  /// the paper's "operation returns failure" timestamps.
  void Resolve(const std::shared_ptr<OpState>& state) {
    net::RpcPolicy policy;
    policy.attempt_timeout = coord::CoordClient::kRpcTimeout;
    // Remaining op budget = remaining view polls; at least one.
    policy.max_attempts =
        std::max(1, options_.max_attempts - state->attempts + 1);
    policy.backoff_base = options_.resolve_poll;
    policy.backoff_multiplier = 1.0;
    policy.backoff_cap = options_.resolve_poll;
    policy.jitter = 1.0;  // decorrelates a reconnecting herd of clients
    coord_client_->WaitForActive(
        state->group, policy,
        [state](int, const Status&) { ++state->attempts; },
        [this, state](Result<coord::GroupView> r) {
          if (!r.ok()) {
            ++state->attempts;  // the final fruitless poll
            Finish(state, Status::Unavailable("no active (failing over)"));
            return;
          }
          const coord::GroupView& view = r.value();
          GroupTargets& targets = targets_[state->group];
          const NodeId active = view.FindActive();
          const bool fresh = targets.active != active;
          targets.active = active;
          targets.standbys = view.Standbys();
          targets.epoch = std::max(targets.epoch, view.fence_token);
          if (fresh) {
            // Latency-model charge for TCP + session setup on a fresh
            // connection — not a retry timer.
            AfterLocal(kReconnectCost,
                       [this, state] { Attempt(state); });
          } else {
            Attempt(state);
          }
        });
  }

  void Finish(const std::shared_ptr<OpState>& state, Result<RespPtr> result) {
    last_stamp_ = OpStamp{};
    last_stamp_.min_sn = state->request->min_sn;
    if (result.ok()) {
      const core::ClientResponseMsg& resp = *result.value();
      // Fold the responder's applied sn into the session token: later
      // reads must observe at least this much of the journal.
      SerialNumber& token = session_sn_[state->group];
      token = std::max(token, resp.applied_sn);
      last_stamp_.applied_sn = resp.applied_sn;
      last_stamp_.via_standby = state->via_standby;
      last_stamp_.via_cache = state->via_cache;
      last_stamp_.server = state->target;
    }
    if (options_.cache.enabled) {
      const core::ClientResponseMsg* ack = nullptr;
      if (result.ok()) {
        const core::ClientResponseMsg& resp = *result.value();
        // Own-ack piggyback: the records of this client's grants the
        // mutation touched, applied before the callback runs, so no
        // in-flight read reply can re-adopt what they supersede.
        for (const core::LeaseRevocation& rec : resp.revocations)
          ApplyRecord(rec);
        if (!core::IsMutation(state->request->op) && !state->via_cache) {
          if (!state->via_standby) ApplyRenewals(*state->request, resp);
          ObserveRead(state, resp);
        }
        // Only an ok ack to the one send vouches for what its records
        // cover: a resend's ack may have none for an earlier execution.
        if (resp.ok && state->attempts == 1) ack = &resp;
      }
      if (core::IsMutation(state->request->op)) {
        InvalidateForMutation(*state->request, ack);
      }
      if (state->refills) ReleaseWaiters(*state);
    }
    state->done(std::move(result));
  }

  const GroupTargets* FindTargets(GroupId group) const {
    auto it = targets_.find(group);
    return it == targets_.end() ? nullptr : &it->second;
  }

  void InvalidateActive(GroupId group, NodeId stale) {
    auto it = targets_.find(group);
    if (it != targets_.end() && it->second.active == stale) {
      it->second.active = kInvalidNode;
    }
  }

  /// Versioned routing truth; updated from shard bounces. Survives crashes
  /// (it is config-like: any staleness is corrected by the next bounce).
  shard::PartitionMap map_;
  FsClientOptions options_;
  Rng rng_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::map<GroupId, GroupTargets> targets_;
  std::map<GroupId, SerialNumber> session_sn_;
  std::uint64_t rr_ = 0;  ///< round-robin cursor over standbys
  std::uint64_t op_seq_ = 0;
  OpStamp last_stamp_;
  Counters counters_;
  // Lease-protected namespace cache (see ClientCacheOptions).
  CacheMap cache_;  ///< by leased directory path, live and dead lines
  /// One group's hit lines by deadline: (deadline when filed, directory).
  /// A hit that sets a line's `hit` bit files it; TakeRenewals drops the
  /// entries it passes. A line files again only once a read to the active
  /// passed it or a new grant restarted it, so the index stays within a
  /// few entries per line held.
  using RenewIndex = std::set<std::pair<SimTime, std::string>>;
  std::map<GroupId, RenewIndex> renewable_;
  using Waiters = std::vector<std::shared_ptr<OpState>>;
  /// Directory -> the reads waiting on the wire read of it in flight (the
  /// one OpState with `refills`).
  std::map<std::string, Waiters, std::less<>> refills_;
  std::size_t live_lines_ = 0;
  bool sweep_armed_ = false;
  /// Bound on live lines; at the cap a reply for a new directory is not
  /// cached.
  static constexpr std::size_t kMaxCachedDirs = 4096;
  /// How long a line may outlive its lease (or a dead line its deadline)
  /// before the sweep drops it.
  static constexpr SimTime kSweepPeriod = core::kLeaseTtl / 8;
  /// Renewal: a read names at most kMaxRenewals lines, each due within
  /// kRenewWindow. A line is renewed about TTL / (TTL - window) times per
  /// TTL: 1.33 at TTL/4, 2 at TTL/2.
  static constexpr std::size_t kMaxRenewals = 16;
  static constexpr SimTime kRenewWindow = core::kLeaseTtl / 4;
  /// Latency-model charge for a locally served hit (no network hop).
  static constexpr SimTime kCacheHitLatency = 1 * kMicrosecond;
  /// Latency-model charge for TCP + session setup on a fresh connection.
  static constexpr SimTime kReconnectCost = 1500 * kMicrosecond;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_miss_reasons_[kMissReasons] = {};  ///< by MissReason
  obs::Counter* m_cache_refill_waits_ = nullptr;
  obs::Counter* m_cache_revocations_ = nullptr;
  obs::Counter* m_cache_patches_ = nullptr;
  obs::Counter* m_cache_expiries_ = nullptr;
  obs::Counter* m_cache_renewals_ = nullptr;
  obs::Counter* m_cache_renewals_applied_ = nullptr;
};

}  // namespace mams::cluster
