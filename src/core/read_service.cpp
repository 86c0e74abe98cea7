#include "core/read_service.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>

#include "core/mds_server.hpp"
#include "core/ops.hpp"
#include "fsns/path.hpp"

namespace mams::core {

namespace {

/// Standby read parking. A read whose min_sn is at most kMaxParkGap batches
/// ahead of the standby's applied sn waits in a queue of at most
/// kMaxParked reads until the gap closes; larger gaps and overflow bounce
/// to the active immediately, and a read still parked after kMaxParkWait
/// bounces too (the standby is lagging, not merely behind by one sync).
constexpr SerialNumber kMaxParkGap = 64;
constexpr std::size_t kMaxParked = 64;
constexpr SimTime kMaxParkWait = 500 * kMillisecond;

/// Bound on live (directory, client) lease grants; at the cap, reads are
/// served without a lease rather than evicting someone else's. Dead grants
/// are reclaimed, so the cap only has to hold the working set: clients
/// times the directories each one reads within a TTL. Every grant costs a
/// fill (kOpCosts.listdir), so one active issues at most ~66k per TTL.
constexpr std::size_t kMaxLeaseGrants = 32768;

}  // namespace

void ReadService::OnRole(ServerState role) {
  // A replica that stops being a standby can no longer promise
  // session-consistent reads; bounce whatever is parked.
  if (role != ServerState::kStandby) FlushParked("role change");
  if (role != ServerState::kActive) {
    grants_.clear();
    grant_count_ = 0;
    expiries_.clear();
  }
}

void ReadService::Execute(const ClientRequestMsg& req, const ReplyFn& reply,
                          bool from_standby) {
  if (!s_.shard().AdmitRead(req, reply)) return;
  auto& counters = s_.mutable_counters();
  Bump(counters.ops_served, s_.m().ops_served);
  Bump(counters.reads, s_.m().reads);
  auto out = std::make_shared<ClientResponseMsg>();
  out->from_standby = from_standby;
  // Wall-clock (not virtual-time) cost of the namespace resolution below;
  // feeds the mds.resolve_ns histogram the bench trajectory tracks. Real
  // nanoseconds never influence simulation state, so determinism holds.
  const auto resolve_begin = std::chrono::steady_clock::now();
  FillRead(s_.tree(), req, *out);
  s_.m().resolve_ns->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - resolve_begin)
          .count());
  const bool filled = MaybeGrantLease(req, *out);
  Renew(req, *out);
  s_.StampReply(*out, s_.last_sn());
  // OpCost charged this read one getfileinfo or one listdir. A fill
  // returns a page of children's attributes, as a getListing does, so a
  // filled stat pays the rest of a listdir; a listing pays one listdir per
  // page of names it returns; each renewal line pays its check. Later
  // requests queue behind the charge; this reply waits its length.
  SimTime extra =
      static_cast<SimTime>(req.renewals.size()) * kOpCosts.lease_renewal;
  if (req.op == ClientOp::kGetFileInfo) {
    if (filled) extra += kOpCosts.listdir - kOpCosts.getfileinfo;
  } else if (!out->listing.empty()) {
    extra += static_cast<SimTime>((out->listing.size() - 1) /
                                  kMaxFillChildren) *
             kOpCosts.listdir;
  }
  if (extra > 0) {
    s_.ChargeCpu(extra);
    s_.AfterLocal(extra, [reply, out] { reply(out); });
    return;
  }
  reply(out);
}

// --- standby read offload ----------------------------------------------------

void ReadService::HandleStandbyRead(const RequestPtr& req,
                                    const ReplyFn& reply) {
  const SerialNumber last = s_.last_sn();
  const SerialNumber min_sn =
      s_.options().mutation == Mutation::kIgnoreMinSn ? 0 : req->min_sn;
  // Staleness as seen at arrival: how far this standby's applied journal
  // trails the client's session floor (0 when already caught up).
  s_.m().standby_read_staleness_sn->Record(
      req->min_sn > last ? req->min_sn - last : 0);
  if (last >= min_sn) {
    ServeStandbyRead(req, reply);
    return;
  }
  if (min_sn - last > kMaxParkGap || parked_.size() >= kMaxParked) {
    BounceRead(reply, "standby behind session floor");
    return;
  }
  // Small gap: park until the journal intake applies up to min_sn, with a
  // deadline so a read never waits out a genuinely lagging replica.
  Bump(s_.mutable_counters().standby_reads_parked,
       s_.m().standby_reads_parked);
  const std::uint64_t token = ++parked_token_seq_;
  parked_.emplace(min_sn, ParkedRead{req, reply, token});
  s_.AfterLocal(kMaxParkWait, [this, token] {
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (it->second.token != token) continue;
      ReplyFn reply = std::move(it->second.reply);
      parked_.erase(it);
      BounceRead(reply, "parked read timed out");
      return;
    }
  });
}

void ReadService::ServeStandbyRead(const RequestPtr& req,
                                   const ReplyFn& reply) {
  const SimTime cost = OpCost(req->op);
  s_.m().cpu_wait_ns->Record(s_.CpuBacklog());
  s_.AfterLocal(s_.ChargeCpu(cost), [this, req, reply] {
    // Re-check: the role may have flipped while the read queued on the CPU.
    if (s_.role() != ServerState::kStandby) {
      BounceRead(reply, "no longer standby");
      return;
    }
    Bump(s_.mutable_counters().standby_reads_served,
         s_.m().standby_reads_served);
    Execute(*req, reply, /*from_standby=*/true);
  });
}

void ReadService::BounceRead(const ReplyFn& reply, const char* why) {
  s_.m().standby_reads_bounced->Add();
  reply(s_.StatusReply(Status::Unavailable(why)));
}

void ReadService::DrainParked() {
  while (!parked_.empty() && parked_.begin()->first <= s_.last_sn()) {
    auto node = parked_.extract(parked_.begin());
    ServeStandbyRead(node.mapped().req, node.mapped().reply);
  }
}

void ReadService::FlushParked(const char* why) {
  while (!parked_.empty()) {
    auto node = parked_.extract(parked_.begin());
    BounceRead(node.mapped().reply, why);
  }
}

// --- active: client-cache directory leases -----------------------------------

bool ReadService::MaybeGrantLease(const ClientRequestMsg& req,
                                  ClientResponseMsg& out) {
  // A stat answering NotFound is leased too: the page covering the name
  // shows it absent, and whatever creates it patches the line.
  const bool stat = req.op == ClientOp::kGetFileInfo;
  if (!MayLease(req) ||
      !(out.ok || (stat && out.code == StatusCode::kNotFound))) {
    return false;
  }
  const SimTime now = s_.sim().Now();
  const std::string dir = stat ? fsns::ParentPath(req.path) : req.path;
  if (dir.empty()) return false;  // stat of "/" has no parent directory
  // The page that answers for the read's name; a listing's is the first.
  const std::string_view name =
      stat ? fsns::BaseName(req.path) : std::string_view();
  Reclaim();
  auto d = grants_.find(dir);
  LeaseGrant* grant = nullptr;
  std::shared_ptr<const DirSnapshot> page;
  if (d != grants_.end()) {
    auto h = d->second.holders.find(req.requester);
    if (h != d->second.holders.end()) grant = &h->second;
    auto p = std::find_if(d->second.pages.begin(), d->second.pages.end(),
                          [name](const auto& p) { return p->Covers(name); });
    if (p != d->second.pages.end()) page = *p;
  }
  // The page: this version's, or the directory to build it from.
  const fsns::Inode* node = page ? nullptr : s_.tree().FindInode(dir);
  // Served unleased: no directory to fill, or the table is full (rather
  // than evict someone else's grant).
  if ((!page && (node == nullptr || !node->is_dir)) ||
      (grant == nullptr && grant_count_ >= kMaxLeaseGrants)) {
    s_.m().leases_refused->Add();
    return false;
  }
  if (d == grants_.end()) d = grants_.emplace(dir, LeasedDir{}).first;
  LeasedDir& leased = d->second;
  if (grant == nullptr) {
    // Fresh grants always draw a fresh id — a revoked id is never reissued,
    // so a client's dead line for it can never refuse a live grant.
    grant = &leased.holders
                 .emplace(req.requester, LeaseGrant{++next_lease_id_, 0})
                 .first->second;
    ++grant_count_;
    Bump(s_.mutable_counters().leases_granted, s_.m().leases_granted);
    // One heap entry per grant; Reclaim re-queues it past each renewal.
    expiries_.push_back({now + kLeaseTtl, dir, req.requester, grant->id});
    std::push_heap(expiries_.begin(), expiries_.end(), std::greater<>{});
  }
  if (!page) {
    page = std::make_shared<const DirSnapshot>(s_.tree(), *node, name,
                                               kMaxFillChildren,
                                               *s_.m().fill_snapshot_bytes);
    leased.pages.push_back(page);
  }
  grant->expire_at = now + kLeaseTtl;
  out.lease_dir = dir;
  out.lease_id = grant->id;
  out.lease_version = leased.version;
  out.lease_epoch = s_.view().fence_token;
  out.lease_expire_at = grant->expire_at;
  out.fill = std::move(page);
  return true;
}

bool ReadService::MayLease(const ClientRequestMsg& req) const {
  // Never issue or extend a grant that could outlive this node's tenure:
  // the coordination service expires our session coord::kSessionTimeout
  // after its last confirmed contact, and a successor active (which starts
  // lease-free) can only be elected after that expiry. `last_ack_time()`
  // under-approximates the contact instant, so this check is conservative
  // even while partitioned.
  return s_.options().client_leases.grant_leases && s_.commit() &&
         req.requester != kInvalidNode &&
         s_.sim().Now() + kLeaseTtl <=
             s_.last_session_ack() + coord::kSessionTimeout;
}

void ReadService::Renew(const ClientRequestMsg& req, ClientResponseMsg& out) {
  if (req.renewals.empty()) return;
  const bool open = MayLease(req);
  const SimTime now = s_.sim().Now();
  if (open) Reclaim();
  for (std::uint32_t i = 0; i < req.renewals.size(); ++i) {
    const LeaseRenewal& r = req.renewals[i];
    // The holder's grant, still unexpired, at the version the line holds.
    // A grant whose patch the holder may lack is a version ahead: it keeps
    // its deadline, which the patch's barrier waits out.
    LeaseGrant* grant = nullptr;
    auto d = grants_.find(r.dir);
    if (open && r.epoch == s_.view().fence_token && d != grants_.end() &&
        d->second.version == r.version) {
      auto h = d->second.holders.find(req.requester);
      if (h != d->second.holders.end() && h->second.id == r.lease_id &&
          h->second.expire_at > now) {
        grant = &h->second;
      }
    }
    if (grant == nullptr) {
      s_.m().lease_renewals_refused->Add();
      continue;
    }
    grant->expire_at = now + kLeaseTtl;  // Reclaim re-queues its expiry
    out.renewed.push_back(i);
    s_.m().lease_renewals->Add();
  }
  if (!out.renewed.empty()) out.renewed_until = now + kLeaseTtl;
}

void ReadService::Reclaim() {
  const SimTime now = s_.sim().Now();
  while (!expiries_.empty() && expiries_.front().at <= now) {
    std::pop_heap(expiries_.begin(), expiries_.end(), std::greater<>{});
    Expiry e = std::move(expiries_.back());
    expiries_.pop_back();
    auto d = grants_.find(e.dir);
    if (d == grants_.end()) continue;
    auto it = d->second.holders.find(e.node);
    if (it == d->second.holders.end() || it->second.id != e.id) continue;
    if (it->second.expire_at > now) {  // renewed since: follow the deadline
      e.at = it->second.expire_at;
      expiries_.push_back(std::move(e));
      std::push_heap(expiries_.begin(), expiries_.end(), std::greater<>{});
      continue;
    }
    d->second.holders.erase(it);
    --grant_count_;
    if (d->second.holders.empty()) grants_.erase(d);
  }
}

void ReadService::PatchDir(std::string_view dir, std::string_view name,
                           NodeId own, Revocation& r) {
  auto it = grants_.find(dir);
  if (it == grants_.end()) return;
  LeasedDir& d = it->second;
  ++d.version;
  d.pages.clear();
  const FenceToken epoch = s_.view().fence_token;
  // The mutation already ran: the tree holds the child as of this version.
  const fsns::Inode* child =
      s_.tree().FindInode(fsns::JoinPath(it->first, name));
  std::optional<fsns::FileInfo> entry;
  if (child != nullptr) entry = s_.tree().InfoOf(*child);
  for (const auto& [node, grant] : d.holders) {
    LeaseRevocation rec{it->first, epoch, grant.id, d.version,
                        std::string(name), grant.expire_at, entry};
    Bump(s_.mutable_counters().lease_patches, s_.m().lease_patches);
    if (node == own) {
      r.own.push_back(std::move(rec));
      continue;
    }
    r.pushes[node].push_back(std::move(rec));
    r.barrier.outstanding.emplace(node, grant.id, d.version);
    r.barrier.release_at = std::max(r.barrier.release_at, grant.expire_at);
  }
}

void ReadService::RevokeDir(const std::string& dir, NodeId own,
                            Revocation& r) {
  auto it = grants_.find(dir);
  if (it == grants_.end()) return;
  const FenceToken epoch = s_.view().fence_token;
  for (const auto& [node, grant] : it->second.holders) {
    const LeaseRevocation rec{dir, epoch, grant.id, kLeaseRevoked, {},
                              grant.expire_at};
    if (node == own) {
      r.own.push_back(rec);
    } else {
      r.pushes[node].push_back(rec);
      r.barrier.outstanding.emplace(node, grant.id, kLeaseRevoked);
      r.barrier.release_at = std::max(r.barrier.release_at, grant.expire_at);
    }
    --grant_count_;
    Bump(s_.mutable_counters().leases_revoked, s_.m().leases_revoked);
  }
  grants_.erase(it);
}

void ReadService::RevokeTree(std::string_view path, NodeId own,
                             Revocation& r) {
  // `path` itself and every cached listing below it. Scan the contiguous
  // string-prefix region of the sorted table; IsPrefixPath filters
  // siblings like "/a/bc" that share the byte prefix without being under
  // "/a/b".
  for (auto it = grants_.lower_bound(path);
       it != grants_.end() && it->first.compare(0, path.size(), path) == 0;) {
    const std::string dir = it->first;
    ++it;  // RevokeDir erases `dir`'s node; `it` already moved past it
    if (dir == path || fsns::IsPrefixPath(path, dir)) RevokeDir(dir, own, r);
  }
}

ReplyFn ReadService::RevokeConflicting(const ClientRequestMsg& req, TxId txid,
                                       ReplyFn reply) {
  if (grants_.empty()) return reply;
  Reclaim();
  // The parent of each named path gets a patch for that child; the path
  // itself and its subtree lose their grants (a directory delete or
  // rename ends every listing below it). The requester's own records ride
  // its ack (it applies them before acting on the reply), so its patched
  // grants stay; remote holders get a push straight from here and gate
  // the ack via the txid barrier.
  Revocation r;
  ForEachConflict(
      req,
      [&](std::string_view dir, std::string_view name) {
        PatchDir(dir, name, req.requester, r);
      },
      [&](std::string_view path) { RevokeTree(path, req.requester, r); });
  std::vector<LeaseRevocation> own = std::move(r.own);
  Revoke(std::move(r), txid);
  if (own.empty()) return reply;
  return [reply, own = std::move(own)](net::MessagePtr out) {
    if (const auto* resp = dynamic_cast<const ClientResponseMsg*>(out.get())) {
      auto patched = std::make_shared<ClientResponseMsg>(*resp);
      patched->revocations = own;
      reply(std::move(patched));
      return;
    }
    reply(std::move(out));
  };
}

void ReadService::RevokeUnder(const std::string& path, TxId txid) {
  if (grants_.empty()) return;
  Reclaim();
  Revocation r;
  // The parent, and every ancestor the install may have materialized.
  for (std::string dir = fsns::ParentPath(path); !dir.empty();
       dir = fsns::ParentPath(dir)) {
    RevokeDir(dir, kInvalidNode, r);
  }
  RevokeTree(path, kInvalidNode, r);
  Revoke(std::move(r), txid);
}

void ReadService::RevokeSlot(std::uint32_t slot, TxId txid, bool parents) {
  // A lease on directory `dir` protects cached entries for `dir`'s
  // children, whose mutations all route by the container slot
  // SlotOfDir(dir) — exactly the unit a migration moves.
  Reclaim();
  const shard::PartitionMap& map = s_.shard().map();
  auto contains_slot = [&](const std::string& dir) {
    if (map.SlotOfDir(dir) == slot) return true;
    if (!parents) return false;
    const fsns::Inode* node = s_.tree().FindInode(dir);
    if (node == nullptr || !node->is_dir) return false;
    for (const fsns::Inode* child : s_.tree().SortedChildren(*node)) {
      if (child->is_dir &&
          map.SlotOfDir(fsns::JoinPath(dir, child->name)) == slot) {
        return true;
      }
    }
    return false;
  };
  Revocation r;
  for (auto it = grants_.begin(); it != grants_.end();) {
    if (!contains_slot(it->first)) {
      ++it;
      continue;
    }
    // RevokeDir erases `dir`'s node; `it` has already moved past it.
    const std::string dir = (it++)->first;
    RevokeDir(dir, kInvalidNode, r);
  }
  Revoke(std::move(r), txid);
}

void ReadService::Revoke(Revocation r, TxId txid) {
  // kIgnoreLeaseRevoke: every push is lost and every remote holder counts
  // as acked at once, so the mutation's reply is never held.
  if (s_.options().mutation == Mutation::kIgnoreLeaseRevoke) return;
  // Fire-and-forget: a lost push costs the barrier its fast path, never
  // correctness — the TTL backstop releases it.
  for (auto& [node, leases] : r.pushes) {
    auto push = std::make_shared<LeaseRevokeMsg>();
    push->leases = std::move(leases);
    s_.Send(node, std::move(push));
  }
  if (r.barrier.outstanding.empty()) return;
  const SimTime release_at = r.barrier.release_at;
  LeaseBarrier& b = barriers_[txid];
  b.release_at = std::max(b.release_at, release_at);
  b.outstanding.insert(r.barrier.outstanding.begin(),
                       r.barrier.outstanding.end());
  // TTL backstop. Each install arms a timer for its own release_at; the one
  // belonging to the final (maximum) deadline performs the release, earlier
  // ones find the deadline still ahead and stand down.
  const SimTime now = s_.sim().Now();
  s_.AfterLocal(release_at > now ? release_at - now : 0, [this, txid] {
    auto it = barriers_.find(txid);
    if (it == barriers_.end()) return;  // acks already drained it
    if (s_.sim().Now() < it->second.release_at) return;  // a later install
    ReleaseBarrier(txid, /*expired=*/true);
  });
}

void ReadService::RunOrHoldOnBarrier(TxId txid, std::function<void()> action) {
  auto it = barriers_.find(txid);
  if (it == barriers_.end()) {
    action();
    return;
  }
  Bump(s_.mutable_counters().lease_replies_held, s_.m().lease_replies_held);
  it->second.held.push_back(std::move(action));
}

void ReadService::ReleaseBarrier(TxId txid, bool expired) {
  auto it = barriers_.find(txid);
  if (it == barriers_.end()) return;
  if (expired) {
    Bump(s_.mutable_counters().lease_barrier_expiries,
         s_.m().lease_barrier_expiries);
  }
  std::vector<std::function<void()>> held = std::move(it->second.held);
  barriers_.erase(it);
  for (auto& action : held) action();
}

void ReadService::HandleRevokeAck(NodeId client, const net::MessagePtr& msg) {
  const auto& ack = net::Cast<LeaseRevokeAckMsg>(msg);
  if (ack.leases.empty()) return;
  std::vector<TxId> drained;
  for (auto& [txid, barrier] : barriers_) {
    for (const auto& [id, version] : ack.leases)
      barrier.outstanding.erase({client, id, version});
    if (barrier.outstanding.empty()) drained.push_back(txid);
  }
  for (TxId txid : drained) ReleaseBarrier(txid, /*expired=*/false);
}

}  // namespace mams::core
