#include "core/recovery.hpp"

#include <algorithm>

#include "core/pool_files.hpp"
#include "journal/record.hpp"

namespace mams::core {

namespace {

/// Reassembles an image's chunk records into one byte buffer.
std::vector<char> AssembleImage(const storage::SharedFile& file) {
  std::vector<char> bytes;
  for (const auto& rec : file.records()) {
    bytes.insert(bytes.end(), rec.bytes.begin(), rec.bytes.end());
  }
  return bytes;
}

}  // namespace

std::optional<RecoveryTool::ImageCandidate> RecoveryTool::BestImage(
    const storage::FileStore& store, GroupId group, TxId target_txid) {
  std::optional<ImageCandidate> best;
  for (const auto& name : store.List(pool_files::ImagePrefix(group))) {
    const storage::SharedFile* file = store.Find(name);
    if (file == nullptr || file->size() == 0) continue;
    fsns::Tree tree;
    if (!tree.LoadImage(AssembleImage(*file)).ok()) continue;  // truncated
    if (tree.last_txid() > target_txid) continue;  // past the target
    if (!best.has_value() || tree.last_txid() > best->tree.last_txid()) {
      ImageCandidate candidate;
      candidate.file = name;
      candidate.tree = std::move(tree);
      candidate.sn = pool_files::ImageSn(group, name);
      best = std::move(candidate);
    }
  }
  return best;
}

Result<fsns::Tree> RecoveryTool::RebuildAt(const storage::FileStore& store,
                                           GroupId group, TxId target_txid,
                                           RecoveryReport* report,
                                           obs::TraceRecorder* tracer) {
  obs::TraceRecorder::Span span;
  if (tracer != nullptr) {
    span = tracer->Begin("recovery", "rebuild_at", kInvalidNode, group,
                         {{"target_txid", static_cast<std::uint64_t>(
                               target_txid)}});
  }
  RecoveryReport local;
  fsns::Tree tree;
  SerialNumber from_sn = 0;

  if (auto image = BestImage(store, group, target_txid)) {
    tree = std::move(image->tree);
    from_sn = image->sn;
    local.base_image_sn = image->sn;
    local.base_image_file = image->file;
  }

  const storage::SharedFile* journal = store.Find(pool_files::Journal(group));
  if (journal != nullptr) {
    for (std::size_t i = journal->FirstIndexAfter(from_sn);
         i < journal->size(); ++i) {
      auto batch =
          journal::Batch::Deserialize(journal->records()[i].bytes.vector());
      if (!batch.ok()) {
        ++local.corrupt_batches_skipped;
        continue;
      }
      bool any = false;
      for (const auto& rec : batch.value().records) {
        if (rec.txid > target_txid) break;
        Status s = tree.Apply(rec);
        if (!s.ok()) {
          if (tracer != nullptr) tracer->End(span, {{"ok", "false"}});
          return Status::Corruption("replay diverged during recovery: " +
                                    s.ToString());
        }
        ++local.records_replayed;
        any = true;
      }
      if (any) ++local.batches_replayed;
      if (tree.last_txid() >= target_txid) break;
    }
  } else if (!local.base_image_sn) {
    // Nothing durable at all for this group.
    if (store.List(pool_files::ImagePrefix(group)).empty()) {
      if (tracer != nullptr) tracer->End(span, {{"ok", "false"}});
      return Status::NotFound("no journal or image for group " +
                              std::to_string(group));
    }
  }

  local.recovered_txid = tree.last_txid();
  if (report != nullptr) *report = local;
  if (tracer != nullptr) {
    tracer->End(
        span,
        {{"ok", "true"},
         {"recovered_txid", static_cast<std::uint64_t>(local.recovered_txid)},
         {"batches", static_cast<std::uint64_t>(local.batches_replayed)}});
  }
  return tree;
}

TxId RecoveryTool::LatestRecoverableTxid(const storage::FileStore& store,
                                         GroupId group) {
  TxId latest = 0;
  const storage::SharedFile* journal = store.Find(pool_files::Journal(group));
  if (journal != nullptr) {
    for (std::size_t i = journal->size(); i-- > 0;) {
      auto batch =
          journal::Batch::Deserialize(journal->records()[i].bytes.vector());
      if (!batch.ok()) continue;
      for (const auto& rec : batch.value().records) {
        latest = std::max(latest, rec.txid);
      }
      break;  // newest valid batch wins
    }
  }
  for (const auto& name : store.List(pool_files::ImagePrefix(group))) {
    const storage::SharedFile* file = store.Find(name);
    if (file == nullptr) continue;
    fsns::Tree tree;
    if (tree.LoadImage(AssembleImage(*file)).ok()) {
      latest = std::max(latest, tree.last_txid());
    }
  }
  return latest;
}

}  // namespace mams::core
