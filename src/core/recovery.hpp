// Point-in-time recovery — the extension the paper's conclusion names as
// future work ("we plan to continue improving file system reliability by
// exploring ... data recovery at any point with less data loss").
//
// Because the SSP keeps the full journal (sn-ordered, fence-deduplicated
// batches) plus periodic images, any past namespace state is
// reconstructible offline: pick the newest image not past the target,
// then replay journal records up to the target transaction id.
//
// This operates directly on a pool node's durable FileStore — it is an
// offline tool (think `mams-recover --txid N`), deliberately independent
// of any live server state.
#pragma once

#include <optional>
#include <string>

#include "common/status.hpp"
#include "fsns/tree.hpp"
#include "obs/trace.hpp"
#include "storage/shared_file.hpp"

namespace mams::core {

struct RecoveryReport {
  TxId recovered_txid = 0;       ///< highest txid folded into the result
  SerialNumber base_image_sn = 0;///< 0 = replayed from an empty namespace
  std::string base_image_file;
  std::uint64_t batches_replayed = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t corrupt_batches_skipped = 0;
};

class RecoveryTool {
 public:
  /// Rebuilds group `group`'s namespace as of `target_txid` (inclusive)
  /// from the shared files in `store`. Passing the maximum TxId recovers
  /// the latest durable state. A non-null `tracer` records one span for
  /// the rebuild (image load + replay), so offline recovery shows up on
  /// the same timeline as the failure that made it necessary.
  ///
  /// Replay applies records one by one in record order and stops at the
  /// first record past the target, which may cut a batch mid-way.
  static Result<fsns::Tree> RebuildAt(const storage::FileStore& store,
                                      GroupId group, TxId target_txid,
                                      RecoveryReport* report = nullptr,
                                      obs::TraceRecorder* tracer = nullptr);

  /// Latest transaction id recoverable from this store for the group.
  static TxId LatestRecoverableTxid(const storage::FileStore& store,
                                    GroupId group);

 private:
  struct ImageCandidate {
    std::string file;
    SerialNumber sn = 0;
    fsns::Tree tree;
  };

  /// Loads the newest image whose folded txid does not exceed the target.
  static std::optional<ImageCandidate> BestImage(
      const storage::FileStore& store, GroupId group, TxId target_txid);
};

}  // namespace mams::core
