// Names of a replica group's files in the shared storage pool: the journal
// "g<group>/journal" and the checkpoint images
// "g<group>/image-<sn>-f<fence>". The writers (MdsServer's journal
// appends, Renewal's checkpoints) and the reader (RecoveryTool) spell them
// only through these helpers.
#pragma once

#include <algorithm>
#include <charconv>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace mams::core::pool_files {

inline std::string Journal(GroupId group) {
  return "g" + std::to_string(group) + "/journal";
}

/// Every image of `group` starts with this prefix (lists them all).
inline std::string ImagePrefix(GroupId group) {
  return "g" + std::to_string(group) + "/image-";
}

/// The fence suffix keeps two actives' checkpoints at the same sn from
/// interleaving chunks in one shared file.
inline std::string Image(GroupId group, SerialNumber sn, FenceToken fence) {
  return ImagePrefix(group) + std::to_string(sn) + "-f" +
         std::to_string(fence);
}

/// The sn folded into an image name of `group` (0 if it carries none).
inline SerialNumber ImageSn(GroupId group, std::string_view name) {
  name.remove_prefix(std::min(name.size(), ImagePrefix(group).size()));
  SerialNumber sn = 0;
  std::from_chars(name.data(), name.data() + name.size(), sn);
  return sn;
}

}  // namespace mams::core::pool_files
