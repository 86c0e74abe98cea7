// DirSnapshot — one directory's whole child set at one lease version: what
// a whole-directory lease fill carries to the client (docs/PROTOCOLS.md,
// "Client-side lease-protected metadata cache").
//
// Names sort as Tree::ListDir lists them, and each child's attributes are
// the fields Tree::GetFileInfo answers with. A snapshot never changes once
// built, so the active builds one per (directory, version) and every reply
// at that version, and every client line filled from one, shares it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fsns/tree.hpp"
#include "obs/metrics.hpp"

namespace mams::core {

class DirSnapshot {
 public:
  /// `dir`'s children in `tree`. While the snapshot lives its size counts
  /// in `live_bytes`.
  DirSnapshot(const fsns::Tree& tree, const fsns::Inode& dir,
              obs::Gauge& live_bytes);
  ~DirSnapshot();
  DirSnapshot(const DirSnapshot&) = delete;
  DirSnapshot& operator=(const DirSnapshot&) = delete;

  std::size_t size() const noexcept { return attrs_.size(); }
  /// Index of child `name`, or size() when the directory lacks it.
  std::size_t Find(std::string_view name) const noexcept;
  /// Child `i` as Tree::GetFileInfo(path) answers for it.
  fsns::FileInfo Info(std::size_t i, std::string path) const;
  /// The children's names, as Tree::ListDir answers.
  std::vector<std::string> Names() const;
  /// Packed size: the names, the attributes and the owner strings. Both
  /// the wire charge and the memory gauge use it.
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  struct Attr {
    SimTime mtime = 0;
    std::uint64_t block_count = 0;
    std::uint32_t name_end = 0;  ///< names_[previous name_end, name_end)
    std::uint32_t replication = 1;
    std::uint32_t owner = 0;     ///< index into owners_
    std::uint16_t permission = 0;
    bool is_dir = false;
    bool complete = true;
  };

  std::string_view name(std::size_t i) const noexcept;

  std::string names_;  ///< every name, concatenated in sorted order
  std::vector<Attr> attrs_;
  std::vector<std::string> owners_;  ///< the few owners the children name
  std::size_t bytes_ = 0;
  obs::Gauge& live_bytes_;
};

}  // namespace mams::core
