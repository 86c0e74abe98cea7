#include "check/shrink.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace mams::check {

namespace {

/// One ddmin pass over a list-valued field of the spec: repeatedly tries
/// dropping chunks (halving granularity down to single elements), keeping
/// any candidate that still violates. `get`/`set` access the list inside
/// the spec; Rerun caches the last violating execution.
template <typename T>
class ListMinimizer {
 public:
  ListMinimizer(RunSpec& spec, std::vector<T> RunSpec::* field,
                int max_runs, int& runs, RunResult& best_result)
      : spec_(spec),
        field_(field),
        max_runs_(max_runs),
        runs_(runs),
        best_(best_result) {}

  /// Returns true when anything was removed.
  bool Minimize() {
    bool changed = false;
    std::size_t chunk = std::max<std::size_t>(1, (spec_.*field_).size() / 2);
    while (true) {
      bool removed_any = false;
      std::size_t i = 0;
      while (i < (spec_.*field_).size()) {
        if (runs_ >= max_runs_) return changed;
        RunSpec candidate = spec_;
        auto& list = candidate.*field_;
        const std::size_t end =
            std::min(list.size(), i + chunk);
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i),
                   list.begin() + static_cast<std::ptrdiff_t>(end));
        ++runs_;
        RunResult r = RunSpecOnce(candidate);
        if (r.violated()) {
          spec_ = std::move(candidate);
          best_ = std::move(r);
          removed_any = true;
          changed = true;
          // i stays: the next chunk shifted into place.
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) {
        if (!removed_any) return changed;
        // One more single-element sweep often unlocks late removals.
        continue;
      }
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }

 private:
  RunSpec& spec_;
  std::vector<T> RunSpec::* field_;
  int max_runs_;
  int& runs_;
  RunResult& best_;
};

}  // namespace

ShrinkResult Shrink(const RunSpec& failing, int max_runs) {
  ShrinkResult out;
  out.spec = failing;
  out.result = RunSpecOnce(out.spec);
  out.runs = 1;
  if (!out.result.violated()) {
    // Not reproducible as given — nothing to shrink.
    return out;
  }
  // Faults first (each removed fault usually makes reruns faster), then
  // ops, repeated until neither list shrinks further.
  while (out.runs < max_runs) {
    ListMinimizer<FaultAction> faults(out.spec, &RunSpec::faults, max_runs,
                                      out.runs, out.result);
    const bool f = faults.Minimize();
    ListMinimizer<OpEntry> ops(out.spec, &RunSpec::ops, max_runs, out.runs,
                               out.result);
    const bool o = ops.Minimize();
    if (!f && !o) break;
  }
  return out;
}

}  // namespace mams::check
