// DirSnapshot — one page of a directory's children at one lease version:
// what a lease fill carries to the client (docs/PROTOCOLS.md,
// "Client-side lease-protected metadata cache").
//
// Page k holds the sorted children [k * page_size, (k + 1) * page_size)
// and answers for every name from its first child's name up to the next
// page's first child's name: page 0 from the beginning, the last page to
// the end. A directory of at most page_size children is one whole page.
// Names sort as Tree::ListDir lists them, and each child's attributes are
// the fields Tree::GetFileInfo answers with (both read through
// Tree::InfoOf, as a lease patch's entry is). A snapshot never changes once
// built, so the active builds each page once per (directory, version), and
// every reply at that version, and every client line filled from one,
// shares it.
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
  /// The page of `dir`'s children in `tree` that answers for `name` (the
  /// empty name: page 0), pages being `page_size` children long. While the
  /// snapshot lives its size counts in `live_bytes`.
  DirSnapshot(const fsns::Tree& tree, const fsns::Inode& dir,
              std::string_view name, std::size_t page_size,
              obs::Gauge& live_bytes);
  ~DirSnapshot();
  DirSnapshot(const DirSnapshot&) = delete;
  DirSnapshot& operator=(const DirSnapshot&) = delete;

  std::size_t size() const noexcept { return attrs_.size(); }
  /// Index of child `name`, or size() when the page lacks it.
  std::size_t Find(std::string_view name) const noexcept;
  /// Child `i` as Tree::GetFileInfo(path) answers for it.
  fsns::FileInfo Info(std::size_t i, std::string path) const;
  /// The page's names, as Tree::ListDir answers for a whole page.
  std::vector<std::string> Names() const;
  /// Whether `name` falls in the page's range: a name the page lacks is
  /// absent from the directory.
  bool Covers(std::string_view name) const noexcept;
  /// Whether the two pages' ranges share a name.
  bool Overlaps(const DirSnapshot& other) const noexcept;
  /// The whole directory: the first page and the last.
  bool whole() const noexcept { return first_page_ && last_page(); }
  /// Packed size: the names, the attributes and the owner strings, plus a
  /// partial page's bound names. Both the wire charge and the memory gauge
  /// use it.
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
  /// The next page's first name: where this page's range ends.
  std::string_view next() const noexcept;
  bool last_page() const noexcept { return next().empty(); }
  /// Every name this page answers for sorts before every name `other`
  /// answers for.
  bool Before(const DirSnapshot& other) const noexcept;

  /// Every name, concatenated in sorted order, then the next page's first
  /// name (none on the last page).
  std::string names_;
  std::vector<Attr> attrs_;
  std::vector<std::string> owners_;  ///< the few owners the children name
  std::uint32_t bytes_ = 0;
  bool first_page_ = true;
  obs::Gauge& live_bytes_;
};

}  // namespace mams::core
