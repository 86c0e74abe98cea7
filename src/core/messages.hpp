// Wire messages for the MAMS replica-group protocol: client metadata RPCs,
// journal synchronization (the modified two-phase commit of Section III.A),
// post-election registration (step 5 of the failover protocol), and the
// renewing protocol (Section III.D).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/dir_snapshot.hpp"
#include "fsns/path.hpp"
#include "fsns/tree.hpp"
#include "journal/record.hpp"
#include "net/message.hpp"
#include "net/message_types.hpp"

namespace mams::core {

// --- client <-> MDS ----------------------------------------------------------

enum class ClientOp : std::uint8_t {
  kCreate = 1,
  kMkdir,
  kDelete,
  kRename,
  kGetFileInfo,
  kListDir,
  kSetReplication,
  kAddBlock,
  kCompleteFile,
  kSetOwner,
  kSetPermission,
  kSetTimes,
};

/// True for operations that mutate the namespace (and hence journal).
constexpr bool IsMutation(ClientOp op) noexcept {
  return op != ClientOp::kGetFileInfo && op != ClientOp::kListDir;
}

/// A client's line, named for renewal by the grant identity it holds: the
/// active extends the grant only while it is still at `version`.
struct LeaseRenewal {
  std::string dir;
  FenceToken epoch = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t version = 0;

  std::size_t ByteSize() const noexcept { return 24 + dir.size(); }
};

struct ClientRequestMsg final : net::Message {
  ClientOp op = ClientOp::kGetFileInfo;
  std::string path;
  std::string path2;              ///< rename destination
  std::uint32_t replication = 1;  ///< kSetReplication / kCreate
  std::uint16_t permission = 0;   ///< kSetPermission
  std::string owner;              ///< kSetOwner
  /// Session-consistency floor for reads: the client's high-water applied
  /// sn for this group. A standby may answer only once its applied sn has
  /// reached this value; the active ignores it (it is always current).
  SerialNumber min_sn = 0;
  ClientOpId client;
  /// Requesting client's node id; the active uses it to address directory
  /// lease grants and revocation pushes. kInvalidNode opts out of leases
  /// (internal traffic: audits and migration legs).
  NodeId requester = kInvalidNode;
  /// A read bound for the active names the client's hot lines of the
  /// group for the active to extend (FsClient::TakeRenewals).
  std::vector<LeaseRenewal> renewals;

  net::MsgType type() const noexcept override { return net::kClientRequest; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 96 + path.size() + path2.size() + owner.size();
    for (const auto& r : renewals) n += r.ByteSize();
    return n;
  }
};
using RequestPtr = std::shared_ptr<const ClientRequestMsg>;

/// The leased directories a mutation conflicts with, in the order the
/// active visits them, for each path it names (a rename names two):
/// `patch(dir, name)` for a directory whose child `name` changed — the
/// path's parent; then `revoke(path)` for the path itself and every
/// directory below it; then, when the op adds or removes a child (which
/// moves the parent's mtime), the parent's entry in the grandparent, and
/// for a create or mkdir (`mkdir -p` may materialize missing ancestors)
/// each further ancestor's entry in its parent. The active patches and
/// revokes grants by it; the mutating client drops by it each line that no
/// patch record on its ack covers.
template <typename Patch, typename Revoke>
void ForEachConflict(const ClientRequestMsg& req, Patch&& patch,
                     Revoke&& revoke) {
  const bool changes_child_set =
      req.op == ClientOp::kCreate || req.op == ClientOp::kMkdir ||
      req.op == ClientOp::kDelete || req.op == ClientOp::kRename;
  const bool materializes =
      req.op == ClientOp::kCreate || req.op == ClientOp::kMkdir;
  auto visit = [&](std::string_view path) {
    const std::string_view parent = fsns::ParentDir(path);
    if (!parent.empty()) patch(parent, fsns::BaseName(path));
    revoke(path);
    if (!changes_child_set) return;
    for (std::string_view dir = parent; dir.size() > 1;
         dir = fsns::ParentDir(dir)) {
      patch(fsns::ParentDir(dir), fsns::BaseName(dir));
      if (!materializes) return;
    }
  };
  visit(req.path);
  if (req.op == ClientOp::kRename && !req.path2.empty()) visit(req.path2);
}


/// How a request handler answers (net::Host::ReplyFn).
using ReplyFn = std::function<void(net::MessagePtr)>;
/// A sealed batch, shared immutably by everything that holds it.
using BatchPtr = std::shared_ptr<const journal::Batch>;

/// Version of a whole-grant revocation: above every patch version, so a
/// revoked grant rejects every reply still in flight for it.
inline constexpr std::uint64_t kLeaseRevoked = ~std::uint64_t{0};

/// One change to a leased directory, as the granter sends it to a holder
/// (pushed, or riding the holder's own ack). A patch (`version` <
/// kLeaseRevoked) says child `name` changed, and carries its new entry:
/// what the granter's tree holds for it at `version` (the fields of
/// Tree::InfoOf, path left empty), or none when the change removed it. The
/// grant stays, now at `version`, and the holder updates its line in
/// place. A revocation (kLeaseRevoked) ends the grant. A grant is named by
/// (epoch, lease_id), as on the reply that carried it.
struct LeaseRevocation {
  std::string dir;            ///< leased directory path
  FenceToken epoch = 0;       ///< the granter's view epoch
  std::uint64_t lease_id = 0;
  std::uint64_t version = kLeaseRevoked;
  std::string name{};         ///< patch: the child whose entry changed
  SimTime expire_at = 0;      ///< the grant's deadline when it was sent
  std::optional<fsns::FileInfo> entry{};  ///< patch: `name`'s new entry

  /// Wire size: four 8-byte fields and the two strings, plus the entry's
  /// packed attributes and owner.
  std::size_t ByteSize() const noexcept {
    return 32 + dir.size() + name.size() +
           (entry ? 24 + entry->owner.size() : 0);
  }
};

struct ClientResponseMsg final : net::Message {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string error;
  fsns::FileInfo info;                 ///< kGetFileInfo
  std::vector<std::string> listing;    ///< kListDir
  /// Serial number of the responder's last applied batch. Write acks carry
  /// the sn the mutation committed at (or later); the client folds it into
  /// its per-group session token.
  SerialNumber applied_sn = 0;
  /// Responder's view epoch (the group's fence token as the responder knows
  /// it). A reply stamped with an epoch older than the client's view of the
  /// group comes from a deposed/renewing replica and is rejected.
  FenceToken group_epoch = 0;
  /// The responder does not own the namespace shard for the request's path
  /// (the partition map moved it). The current map rides along so the
  /// client re-routes without an extra round trip — the shard analogue of
  /// the group_epoch rejection above.
  bool shard_bounce = false;
  /// Served by a standby (session-consistent read offload). A client that
  /// sent the read to the group's active learns that its cached active was
  /// deposed and re-resolves, as on "not active". Wire size unchanged.
  bool from_standby = false;
  std::uint64_t map_epoch = 0;
  std::vector<char> map_bytes;
  // Directory lease grant riding on an active-served read (lease_id 0 = no
  // grant). The client may serve `lease_dir` from `fill` locally until
  // `lease_expire_at` (absolute virtual time) or until the lease is revoked.
  // `lease_version` is the directory's version when the read was served:
  // every change to one of its children since the grant bumped it once.
  std::string lease_dir;
  std::uint64_t lease_id = 0;
  std::uint64_t lease_version = 0;
  FenceToken lease_epoch = 0;
  SimTime lease_expire_at = 0;
  /// The page of `lease_dir` at `lease_version` that answers for the
  /// read's name (a listing's is the first), shared by every reply at that
  /// version. A directory of at most ReadService::kMaxFillChildren children
  /// is one whole page, and a listing of it sends only the page's names.
  std::shared_ptr<const DirSnapshot> fill;
  /// The records of the requester's own grants that its mutation touched,
  /// riding its ack as a push would carry them (no push round needed): a
  /// patch for a changed child (the requester applies it to its line and
  /// keeps the line), or a revocation.
  std::vector<LeaseRevocation> revocations;
  /// The indices of the request's `renewals` the active extended, each to
  /// `renewed_until` (absolute virtual time).
  std::vector<std::uint32_t> renewed;
  SimTime renewed_until = 0;

  net::MsgType type() const noexcept override { return net::kClientResponse; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 128 + error.size();
    for (const auto& rec : revocations) n += rec.ByteSize();
    if (!renewed.empty()) n += 8 + 4 * renewed.size();
    if (fill && fill->whole()) return n + fill->bytes();
    for (const auto& s : listing) n += s.size() + 8;
    return fill ? n + fill->bytes() : n;
  }
};

// --- directory lease revocation (active <-> client) --------------------------

/// Active -> holder: apply the patches and revocations, and ack each to
/// the sender. The acks are what release the mutation's reply barrier.
struct LeaseRevokeMsg final : net::Message {
  std::vector<LeaseRevocation> leases;
  net::MsgType type() const noexcept override { return net::kLeaseRevoke; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 64;
    for (const auto& rec : leases) n += rec.ByteSize();
    return n;
  }
};

/// Holder -> active: the pushed (lease id, version) pairs are applied.
struct LeaseRevokeAckMsg final : net::Message {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> leases;
  net::MsgType type() const noexcept override { return net::kLeaseRevokeAck; }
  std::size_t ByteSize() const noexcept override {
    return 64 + 16 * leases.size();
  }
};

// --- journal synchronization (active -> standbys) -----------------------------

/// Phase 1+implicit-commit of the modified 2PC: the active has already
/// decided; the standby applies iff the batch's sn exceeds its current
/// maximum (the duplicate-suppression rule of failover step 4).
struct JournalPrepareMsg final : net::Message {
  FenceToken fence = 0;             ///< sender's fencing token (IO fencing)
  /// Shared, immutable payload: the active fans one sealed batch out to
  /// every sync target (and keeps it in recent_batches_ / pending_sync_),
  /// so the message references the batch instead of copying its records
  /// once per recipient.
  BatchPtr batch;

  net::MsgType type() const noexcept override { return net::kJournalPrepare; }
  std::size_t ByteSize() const noexcept override {
    return 96 + (batch ? batch->EncodedSize() : 0);
  }
};

struct JournalAckMsg final : net::Message {
  bool stale_fence = false;  ///< sender is deposed; stop sending

  net::MsgType type() const noexcept override { return net::kJournalAck; }
};

// --- post-election registration (failover step 5) ------------------------------

/// The elected standby polls every configured group member: "register with
/// me". Peers reply with their journal position; equal-sn peers become
/// standbys, laggards become juniors.
///
/// Registration runs in two rounds. The first is a non-destructive probe
/// (`discard_ahead` false): peers only report their position, so the
/// elected standby can first catch up from any peer holding committed
/// batches it never saw. The second round (`discard_ahead` true) is final:
/// a peer still ahead of `active_sn` holds only uncommitted partial
/// replications and must discard them before the group settles.
struct GroupRegisterMsg final : net::Message {
  FenceToken fence = 0;
  SerialNumber active_sn = 0;
  bool discard_ahead = true;

  net::MsgType type() const noexcept override { return net::kGroupRegister; }
};

struct GroupRegisterAckMsg final : net::Message {
  SerialNumber max_sn = 0;

  net::MsgType type() const noexcept override { return net::kGroupRegisterAck; }
};

// --- renewing protocol (active <-> junior) -----------------------------------

enum class RenewMode : std::uint8_t {
  kJournalOnly = 1,  ///< small gap: stream journal batches
  kImageFirst = 2,   ///< large gap: load latest image, then journal
};

struct RenewCommandMsg final : net::Message {
  FenceToken fence = 0;
  std::string image_file;        ///< for kImageFirst: SSP file to load
  SerialNumber image_sn = 0;     ///< sn folded into that image
  SerialNumber active_sn = 0;

  net::MsgType type() const noexcept override { return net::kRenewCommand; }
};

/// Junior -> active progress report ("the junior records the current sn and
/// sends it to the active periodically").
struct RenewProgressMsg final : net::Message {
  SerialNumber current_sn = 0;
  bool failed = false;

  net::MsgType type() const noexcept override { return net::kRenewProgress; }
};

/// Pulls a peer's recent batches after `after_sn` (MdsServer::CatchUp:
/// backfill, step-5 catch-up, renewal final sync).
struct RenewJournalFetchMsg final : net::Message {
  SerialNumber after_sn = 0;

  net::MsgType type() const noexcept override {
    return net::kRenewJournalFetch;
  }
};

struct RenewJournalReplyMsg final : net::Message {
  std::vector<BatchPtr> batches;  ///< the active's own immutable batches
  SerialNumber active_sn = 0;
  std::uint64_t payload_bytes = 0;

  net::MsgType type() const noexcept override { return net::kRenewJournalReply; }
  std::size_t ByteSize() const noexcept override {
    return 96 + payload_bytes;
  }
};

// --- shard migration (source active <-> destination active) -----------------

/// One chunk of a shard's contents, streamed source -> destination. The
/// records are journal install/erase/dedup records the destination applies
/// and journals through its own group's 2PC before acking, so a chunk ack
/// means the data is as durable at the destination as any client write.
struct ShardTransferMsg final : net::Message {
  GroupId from_group = 0;
  std::uint32_t slot = 0;
  TxId migration_id = 0;      ///< source's kShardMigrateBegin txid
  std::uint32_t seq = 0;      ///< chunk sequence within the migration
  bool final_chunk = false;   ///< cutover complete: last delta + dedup table
  std::vector<journal::LogRecord> records;

  net::MsgType type() const noexcept override { return net::kShardTransfer; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 96;
    for (const auto& r : records) n += r.EncodedSize();
    return n;
  }
};

struct ShardTransferAckMsg final : net::Message {
  bool ok = false;
  std::string error;

  net::MsgType type() const noexcept override { return net::kShardTransferAck; }
};

enum class ShardControlKind : std::uint8_t {
  kActivate = 1,      ///< src -> dst: cutover done, own the slot (journals
                      ///< kShardAcquire; safe to repeat)
  kAbort = 2,         ///< src -> dst: migration abandoned, discard the slot
  kQuery = 3,         ///< dst -> src: what happened to migration_id?
  kTxCommit = 4,      ///< entry group -> peer group: install the entry
};

struct ShardControlMsg final : net::Message {
  ShardControlKind kind = ShardControlKind::kActivate;
  GroupId from_group = 0;
  std::uint32_t slot = 0;
  TxId migration_id = 0;
  // kTxCommit payload (the 128-byte header covers the op and the client):
  // the two-group transaction's op, which names its ShardEngine::TwoGroupOp
  // row, its client op, and the install records the peer journals.
  journal::OpCode tx_op{};
  ClientOpId client;
  std::vector<journal::LogRecord> install;

  net::MsgType type() const noexcept override { return net::kShardControl; }
  std::size_t ByteSize() const noexcept override {
    std::size_t n = 128;
    for (const auto& r : install) n += r.EncodedSize();
    return n;
  }
};

/// kQuery outcome: how the source's journal remembers the migration.
enum class MigrationOutcome : std::uint8_t {
  kUnknown = 0,      ///< no trace (source never began it)
  kInProgress = 1,   ///< begun, not yet cut over
  kEnded = 2,        ///< cut over (or finished): destination owns the slot
  kAborted = 3,      ///< abandoned before cutover: destination must discard
};

struct ShardControlAckMsg final : net::Message {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string error;
  MigrationOutcome outcome = MigrationOutcome::kUnknown;  ///< kQuery reply

  net::MsgType type() const noexcept override { return net::kShardControlAck; }
};

// --- data servers --------------------------------------------------------

struct BlockReportMsg final : net::Message {
  NodeId data_server = kInvalidNode;
  std::vector<BlockId> blocks;        ///< real ids (correctness paths)
  std::uint64_t synthetic_count = 0;  ///< timing model (Table I scale)

  std::uint64_t EffectiveCount() const noexcept {
    return std::max<std::uint64_t>(blocks.size(), synthetic_count);
  }
  /// Reports are large in real clusters; the logical size scales with the
  /// number of blocks so ingest bandwidth is modelled.
  net::MsgType type() const noexcept override { return net::kBlockReport; }
  std::size_t ByteSize() const noexcept override {
    return 64 + static_cast<std::size_t>(EffectiveCount()) * 24;
  }
};

struct BlockReportAckMsg final : net::Message {
  net::MsgType type() const noexcept override { return net::kBlockReportAck; }
};

}  // namespace mams::core
