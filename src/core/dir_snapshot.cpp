#include "core/dir_snapshot.hpp"

#include <algorithm>

namespace mams::core {

DirSnapshot::DirSnapshot(const fsns::Tree& tree, const fsns::Inode& dir,
                         obs::Gauge& live_bytes)
    : live_bytes_(live_bytes) {
  const std::vector<const fsns::Inode*> children = tree.SortedChildren(dir);
  attrs_.reserve(children.size());
  std::vector<std::uint32_t> owner_ids;  // tree owner id, by owners_ index
  for (const fsns::Inode* child : children) {
    names_ += child->name;
    auto owner = std::find(owner_ids.begin(), owner_ids.end(), child->owner_id);
    if (owner == owner_ids.end()) {
      owners_.push_back(tree.OwnerOf(*child));
      owner = owner_ids.insert(owner, child->owner_id);
    }
    attrs_.push_back({.mtime = child->mtime,
                      .block_count = child->blocks.size(),
                      .name_end = static_cast<std::uint32_t>(names_.size()),
                      .replication = child->replication,
                      .owner = static_cast<std::uint32_t>(
                          owner - owner_ids.begin()),
                      .permission = child->permission,
                      .is_dir = child->is_dir,
                      .complete = child->complete});
  }
  names_.shrink_to_fit();
  bytes_ = sizeof(*this) + names_.size() + attrs_.size() * sizeof(Attr);
  for (const std::string& owner : owners_) bytes_ += owner.size();
  live_bytes_.Add(static_cast<std::int64_t>(bytes_));
}

DirSnapshot::~DirSnapshot() {
  live_bytes_.Add(-static_cast<std::int64_t>(bytes_));
}

std::string_view DirSnapshot::name(std::size_t i) const noexcept {
  const std::uint32_t begin = i == 0 ? 0 : attrs_[i - 1].name_end;
  return std::string_view(names_).substr(begin, attrs_[i].name_end - begin);
}

std::size_t DirSnapshot::Find(std::string_view name) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = attrs_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (this->name(mid) < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < attrs_.size() && this->name(lo) == name ? lo : attrs_.size();
}

fsns::FileInfo DirSnapshot::Info(std::size_t i, std::string path) const {
  const Attr& a = attrs_[i];
  return {.path = std::move(path),
          .is_dir = a.is_dir,
          .replication = a.replication,
          .permission = a.permission,
          .owner = owners_[a.owner],
          .mtime = a.mtime,
          .block_count = a.block_count,
          .complete = a.complete};
}

std::vector<std::string> DirSnapshot::Names() const {
  std::vector<std::string> names;
  names.reserve(attrs_.size());
  for (std::size_t i = 0; i < attrs_.size(); ++i)
    names.emplace_back(name(i));
  return names;
}

}  // namespace mams::core
