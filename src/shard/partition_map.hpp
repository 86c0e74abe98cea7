// Versioned namespace partition map — the one source of routing truth.
//
// The namespace hash space is divided into `slot_count` slots (a path's
// slot is the hash of its parent directory, fsns::PathSlot); the map
// assigns contiguous slot ranges to replica groups and carries an epoch
// that increases on every reassignment. Every cluster boots with
// Seed(groups); the map is published through the coordination service
// after a shard migration cuts over. Servers enforce it (requests for a
// slot they do not own bounce, carrying the current map) and clients
// cache it (a bounce with a newer epoch refreshes the cache and
// re-routes), mirroring the group_epoch rejection path for deposed
// replicas.
//
// Seed(groups) interleaves slots round-robin (slot % groups); with one
// group every slot belongs to group 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fsns/partition.hpp"

namespace mams::shard {

/// Half-open is wrong for hash slots: ranges are inclusive [lo, hi] over
/// slot indices, and a valid map's ranges cover [0, slot_count) exactly
/// once in ascending order.
struct ShardRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;  ///< inclusive
  GroupId group = 0;

  bool operator==(const ShardRange&) const = default;
};

class PartitionMap {
 public:
  static constexpr std::uint32_t kDefaultSlots = 64;

  PartitionMap() = default;

  /// Round-robin seed map at epoch 1: slot s -> group (s % groups).
  static PartitionMap Seed(GroupId groups,
                           std::uint32_t slot_count = kDefaultSlots);

  std::uint64_t epoch() const noexcept { return epoch_; }
  std::uint32_t slot_count() const noexcept { return slot_count_; }
  const std::vector<ShardRange>& ranges() const noexcept { return ranges_; }
  bool empty() const noexcept { return ranges_.empty(); }

  /// Group owning slot `slot`. Requires a valid map.
  GroupId OwnerOfSlot(std::uint32_t slot) const;

  /// Slot / owning group of the directory entry for `path` (parent hash).
  std::uint32_t SlotOf(std::string_view path) const {
    return fsns::PathSlot(path, slot_count_);
  }
  GroupId OwnerOf(std::string_view path) const {
    return OwnerOfSlot(SlotOf(path));
  }

  /// Slot / owning group of the directory itself as a container.
  std::uint32_t SlotOfDir(std::string_view dir) const {
    return fsns::DirSlot(dir, slot_count_);
  }
  GroupId OwnerOfDir(std::string_view dir) const {
    return OwnerOfSlot(SlotOfDir(dir));
  }

  /// Reassigns one slot to `group`, splitting its range as needed, and
  /// bumps the epoch. This is the migration cutover's map mutation.
  void Assign(std::uint32_t slot, GroupId group);

  /// Splits the range containing `slot` so that `slot` starts its own
  /// range (same owner); bumps the epoch. No-op if already a boundary.
  void Split(std::uint32_t slot);

  /// Merges the range containing `slot` with its successor range when both
  /// share an owner; bumps the epoch. No-op otherwise.
  void MergeWithNext(std::uint32_t slot);

  /// Structural invariants: ascending, contiguous, inclusive ranges that
  /// cover [0, slot_count) exactly once.
  Status Validate() const;

  std::vector<char> Serialize() const;
  static Result<PartitionMap> Deserialize(const std::vector<char>& bytes);

  bool operator==(const PartitionMap&) const = default;

 private:
  /// Index of the range containing `slot`.
  std::size_t RangeOf(std::uint32_t slot) const;
  /// Coalesces adjacent same-owner ranges (canonical form).
  void Normalize();

  std::uint64_t epoch_ = 0;
  std::uint32_t slot_count_ = kDefaultSlots;
  std::vector<ShardRange> ranges_;
};

}  // namespace mams::shard
