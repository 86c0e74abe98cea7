// Path utilities for the flat-string path API ("/a/b/c"). Paths are always
// absolute; components never contain '/'; "/" is the root directory.
//
// Namespace resolution iterates components with PathComponents, a
// zero-allocation cursor over the original string_view.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace mams::fsns {

/// True for a syntactically valid absolute path.
bool IsValidPath(std::string_view path);

/// Zero-allocation forward iteration over the components of a path:
///
///   for (std::string_view comp : PathComponents("/a/b/c")) ...  // a, b, c
///
/// Every yielded component is a substring of the original path (stable as
/// long as the path is). Empty components — repeated or trailing '/' —
/// are skipped, so iteration is well-defined even for strings IsValidPath
/// rejects; root ("/") yields nothing.
class PathComponents {
 public:
  explicit constexpr PathComponents(std::string_view path) noexcept
      : path_(path) {}

  class iterator {
   public:
    constexpr iterator(std::string_view path, std::size_t pos) noexcept
        : path_(path), begin_(pos) {
      Skip();
    }
    constexpr std::string_view operator*() const noexcept {
      return path_.substr(begin_, end_ - begin_);
    }
    constexpr iterator& operator++() noexcept {
      begin_ = end_;
      Skip();
      return *this;
    }
    constexpr bool operator==(const iterator& o) const noexcept {
      return begin_ == o.begin_;
    }
    constexpr bool operator!=(const iterator& o) const noexcept {
      return begin_ != o.begin_;
    }
    /// Offset one past this component's last character — the length of the
    /// path prefix ending at this component (error-message reconstruction).
    constexpr std::size_t prefix_length() const noexcept { return end_; }

   private:
    constexpr void Skip() noexcept {
      while (begin_ < path_.size() && path_[begin_] == '/') ++begin_;
      if (begin_ >= path_.size()) {
        begin_ = path_.size();
        end_ = begin_;
        return;
      }
      end_ = begin_;
      while (end_ < path_.size() && path_[end_] != '/') ++end_;
    }

    std::string_view path_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
  };

  constexpr iterator begin() const noexcept { return iterator(path_, 0); }
  constexpr iterator end() const noexcept {
    return iterator(path_, path_.size());
  }

 private:
  std::string_view path_;
};

/// Parent of "/a/b/c" is "/a/b"; parent of "/a" is "/"; root has no parent
/// (returns empty string).
std::string ParentPath(std::string_view path);

/// Allocation-free ParentPath: the returned view aliases `path`.
std::string_view ParentDir(std::string_view path) noexcept;

/// Last component ("c" for "/a/b/c"); empty for root.
std::string_view BaseName(std::string_view path);

/// Joins a parent path and a child name.
std::string JoinPath(std::string_view parent, std::string_view child);

/// True when `path` equals `ancestor` or lies beneath it.
bool IsPrefixPath(std::string_view ancestor, std::string_view path);

}  // namespace mams::fsns
