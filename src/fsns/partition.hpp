// Hash slots of the namespace (the Clover / CFS scheme the paper builds
// on, ref [28]).
//
// A path's slot is the hash of its *parent directory*: all entries of one
// directory share a slot, so directory-local operations (create,
// getfileinfo, list) touch exactly one metadata server and scale with the
// number of groups — this is why Figure 5 shows CFS beating single-NN HDFS
// on create/getfileinfo. shard::PartitionMap assigns slots to replica
// groups.
//
// Operations whose arguments span directories owned by different groups
// (rename across directories, delete of a subtree, mkdir of a chain of new
// ancestors) are distributed transactions in CFS; the servers run them as
// cross-group commits that cost an extra round trip, which reproduces
// Figure 5's lower mkdir/delete/rename throughput.
#pragma once

#include <string_view>

#include "common/bytes.hpp"
#include "fsns/path.hpp"

namespace mams::fsns {

/// Slot of the directory `dir` as a container (where its children live)
/// in a `slot_count`-slot hash space.
inline std::uint32_t DirSlot(std::string_view dir,
                             std::uint32_t slot_count) noexcept {
  return static_cast<std::uint32_t>(Fnv1a(dir) % slot_count);
}

/// Slot owning the directory entry for `path` (hash of its parent).
inline std::uint32_t PathSlot(std::string_view path,
                              std::uint32_t slot_count) noexcept {
  if (path.size() <= 1) return DirSlot("/", slot_count);
  return DirSlot(ParentPath(path), slot_count);
}

}  // namespace mams::fsns
