#include "core/dir_snapshot.hpp"

#include <algorithm>
#include <utility>

namespace mams::core {

DirSnapshot::DirSnapshot(const fsns::Tree& tree, const fsns::Inode& dir,
                         std::string_view name, std::size_t page_size,
                         obs::Gauge& live_bytes)
    : live_bytes_(live_bytes) {
  const std::vector<const fsns::Inode*> children = tree.SortedChildren(dir);
  // The children that sort at or before `name`: the page holding the last
  // of them answers for it (page 0 when there is none).
  const std::size_t at_or_before =
      std::upper_bound(children.begin(), children.end(), name,
                       [](std::string_view n, const fsns::Inode* child) {
                         return n < child->name;
                       }) -
      children.begin();
  const std::size_t begin =
      at_or_before == 0 ? 0 : (at_or_before - 1) / page_size * page_size;
  const std::size_t end = std::min(begin + page_size, children.size());
  first_page_ = begin == 0;
  attrs_.reserve(end - begin);
  std::vector<std::uint32_t> owner_ids;  // tree owner id, by owners_ index
  for (std::size_t i = begin; i < end; ++i) {
    const fsns::Inode* child = children[i];
    fsns::FileInfo info = tree.InfoOf(*child);
    names_ += child->name;
    auto owner = std::find(owner_ids.begin(), owner_ids.end(), child->owner_id);
    if (owner == owner_ids.end()) {
      owners_.push_back(std::move(info.owner));
      owner = owner_ids.insert(owner, child->owner_id);
    }
    attrs_.push_back({.mtime = info.mtime,
                      .block_count = info.block_count,
                      .name_end = static_cast<std::uint32_t>(names_.size()),
                      .replication = info.replication,
                      .owner = static_cast<std::uint32_t>(
                          owner - owner_ids.begin()),
                      .permission = info.permission,
                      .is_dir = info.is_dir,
                      .complete = info.complete});
  }
  if (end < children.size()) names_ += children[end]->name;
  names_.shrink_to_fit();
  std::size_t bytes =
      sizeof(*this) + names_.size() + attrs_.size() * sizeof(Attr);
  if (!first_page_) bytes += this->name(0).size();
  for (const std::string& owner : owners_) bytes += owner.size();
  bytes_ = static_cast<std::uint32_t>(bytes);
  live_bytes_.Add(static_cast<std::int64_t>(bytes_));
}

DirSnapshot::~DirSnapshot() {
  live_bytes_.Add(-static_cast<std::int64_t>(bytes_));
}

std::string_view DirSnapshot::name(std::size_t i) const noexcept {
  const std::uint32_t begin = i == 0 ? 0 : attrs_[i - 1].name_end;
  return std::string_view(names_).substr(begin, attrs_[i].name_end - begin);
}

std::string_view DirSnapshot::next() const noexcept {
  return std::string_view(names_).substr(
      attrs_.empty() ? 0 : attrs_.back().name_end);
}

bool DirSnapshot::Covers(std::string_view name) const noexcept {
  return (first_page_ || name >= this->name(0)) &&
         (last_page() || name < next());
}

bool DirSnapshot::Before(const DirSnapshot& other) const noexcept {
  return !last_page() && !other.first_page_ && next() <= other.name(0);
}

bool DirSnapshot::Overlaps(const DirSnapshot& other) const noexcept {
  return !Before(other) && !other.Before(*this);
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
