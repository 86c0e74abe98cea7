#include "fsns/path.hpp"

namespace mams::fsns {

bool IsValidPath(std::string_view path) {
  if (path.empty() || path.front() != '/') return false;
  if (path.size() > 1 && path.back() == '/') return false;
  // No empty components ("//") and no "." / ".." components.
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    if (path.size() > 1) {
      const std::string_view comp = path.substr(start, end - start);
      if (comp.empty() || comp == "." || comp == "..") return false;
    }
    start = end + 1;
  }
  return true;
}

std::string ParentPath(std::string_view path) {
  return std::string(ParentDir(path));
}

std::string_view ParentDir(std::string_view path) noexcept {
  if (path.size() <= 1) return {};
  const std::size_t slash = path.rfind('/');
  if (slash == 0) return path.substr(0, 1);  // "/"
  return path.substr(0, slash);
}

std::string_view BaseName(std::string_view path) {
  if (path.size() <= 1) return {};
  const std::size_t slash = path.rfind('/');
  return path.substr(slash + 1);
}

std::string JoinPath(std::string_view parent, std::string_view child) {
  std::string out;
  out.reserve(parent.size() + 1 + child.size());
  out += parent;
  if (out.empty() || out.back() != '/') out += '/';
  out += child;
  return out;
}

bool IsPrefixPath(std::string_view ancestor, std::string_view path) {
  if (ancestor == "/") return true;
  if (path.size() < ancestor.size()) return false;
  if (path.substr(0, ancestor.size()) != ancestor) return false;
  return path.size() == ancestor.size() || path[ancestor.size()] == '/';
}

}  // namespace mams::fsns
