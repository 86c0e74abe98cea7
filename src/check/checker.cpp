#include "check/checker.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "check/model.hpp"
#include "fsns/path.hpp"

namespace mams::check {

namespace {

using workload::OpKind;

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Search-node budget; an exhausted budget reports "undecided", never a
/// false violation.
constexpr std::uint64_t kMaxStates = 4'000'000;

/// True when the event (if it executed) could remove or replace `path`:
/// deleting it or an ancestor, or renaming it or an ancestor away.
bool Destroys(const Event& e, const std::string& path) {
  if (e.kind == OpKind::kDelete || e.kind == OpKind::kRename) {
    return fsns::IsPrefixPath(e.path, path);
  }
  return false;
}

/// True when the event (if it executed) could (re)materialize `path`:
/// creating it, mkdir of it or a descendant (ancestor materialization),
/// create of a descendant, or renaming something into it or an ancestor
/// of it.
bool Materializes(const Event& e, const std::string& path) {
  switch (e.kind) {
    case OpKind::kCreate:
    case OpKind::kMkdir:
      return fsns::IsPrefixPath(path, e.path);
    case OpKind::kRename:
      return fsns::IsPrefixPath(path, e.path2) ||
             fsns::IsPrefixPath(e.path2, path);
    default:
      return false;
  }
}

bool MayHaveExecuted(const Event& e) {
  return e.outcome == Outcome::kOk || e.outcome == Outcome::kAmbiguous;
}

/// events ordered by id (== invoke order within a run).
class Search {
 public:
  /// `linearized`: session reads searched as linearizable core ops.
  Search(const History& history,
         const std::unordered_set<std::uint32_t>& linearized)
      : history_(history), linearized_(linearized) {}

  CheckResult Run() {
    CheckResult result;
    for (const Event& e : history_.events()) {
      // Ambiguous reads observed nothing and constrain nothing.
      if (!e.definite() && e.is_read()) continue;
      // Standby-served and cache-served reads are session-consistent, not
      // linearizable: they may observe a slightly earlier prefix of the
      // mutation order. Exempt them from the real-time core search and
      // verify them separately (read-your-writes + monotonic reads, plus
      // the lease revocation barrier for cache hits) against the witness
      // linearization the core search produces.
      if (e.definite() && e.is_read() && (e.via_standby || e.via_cache) &&
          !linearized_.contains(e.id)) {
        session_reads_.push_back(&e);
        continue;
      }
      ops_.push_back(&e);
    }
    std::stable_sort(ops_.begin(), ops_.end(),
                     [](const Event* a, const Event* b) {
                       return a->invoke < b->invoke;
                     });
    n_ = ops_.size();
    done_.assign((n_ + 63) / 64, 0);
    definite_left_ = 0;
    for (const Event* e : ops_) {
      if (e->definite()) ++definite_left_;
    }
    result.linearizable = Dfs();
    result.states_explored = states_;
    result.decided = !budget_exhausted_;
    if (budget_exhausted_) result.linearizable = false;
    if (!result.linearizable && result.decided) {
      Classify(result.violations);
    }
    if (result.linearizable) {
      CheckSessionReads(result.violations);
      if (!result.violations.empty()) result.linearizable = false;
    }
    return result;
  }

  std::size_t best_depth() const noexcept { return best_depth_; }
  /// The session reads of every group in which a read matched no prefix
  /// of the witness.
  const std::vector<const Event*>& unexplained_groups() const noexcept {
    return unexplained_groups_;
  }

 private:
  bool Taken(std::size_t i) const {
    return (done_[i / 64] >> (i % 64)) & 1u;
  }
  void SetTaken(std::size_t i) { done_[i / 64] |= 1ull << (i % 64); }
  void ClearTaken(std::size_t i) { done_[i / 64] &= ~(1ull << (i % 64)); }

  std::uint64_t StateKey() const {
    std::uint64_t h = model_.Fingerprint();
    for (const std::uint64_t w : done_) h = (h ^ w) * 0x100000001b3ull;
    return h;
  }

  /// Whether linearizing `e` here is consistent with its observation.
  /// Leaves the model mutated on success; caller reverts via `undo`.
  bool TryStep(const Event& e, Model::Undo* undo) {
    ReadView view;
    const StatusCode code = model_.Step(e, undo, &view);
    switch (e.outcome) {
      case Outcome::kOk:
        return code == StatusCode::kOk && (!e.is_read() || view == e.view);
      case Outcome::kError:
        if (code == e.code) return true;
        // A directory that only ever materialized implicitly (mkdir -p
        // under a deeper create) exists solely at the group that executed
        // the create; the entry-owner group a stat routes to may never
        // have heard of it. NotFound is an admissible answer for such a
        // directory — see docs/SHARDING.md, "Implicit directories".
        return e.kind == OpKind::kGetFileInfo &&
               e.code == StatusCode::kNotFound && code == StatusCode::kOk &&
               model_.IsImplicitDir(e.path);
      case Outcome::kAmbiguous:
        // Only an executed-with-effect branch is distinct from "never
        // executed" (a semantic error mutates nothing).
        return code == StatusCode::kOk;
      case Outcome::kPending:
        break;
    }
    return false;
  }

  bool Dfs() {
    if (definite_left_ == 0) return true;  // leftovers are ambiguous: fine
    if (++states_ > kMaxStates) {
      budget_exhausted_ = true;
      return false;
    }
    if (!seen_.insert(StateKey()).second) return false;
    // The real-time bound: an op may linearize now only if it was invoked
    // before every not-yet-linearized op completed.
    SimTime min_complete = kNever;
    for (std::size_t i = 0; i < n_; ++i) {
      if (Taken(i)) continue;
      const Event& e = *ops_[i];
      if (e.definite() && e.complete < min_complete) min_complete = e.complete;
    }
    const std::size_t depth = n_ - Remaining();
    if (depth > best_depth_) {
      best_depth_ = depth;
      frontier_.clear();
    }
    for (const bool ambiguous_pass : {false, true}) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (Taken(i)) continue;
        const Event& e = *ops_[i];
        if (e.definite() == ambiguous_pass) continue;
        if (e.invoke > min_complete) break;  // ops_ sorted by invoke
        Model::Undo undo;
        if (TryStep(e, &undo)) {
          SetTaken(i);
          order_.push_back(&e);
          if (e.definite()) --definite_left_;
          if (Dfs()) return true;  // order_ keeps the witness linearization
          if (e.definite()) ++definite_left_;
          order_.pop_back();
          ClearTaken(i);
          if (budget_exhausted_) {
            model_.Revert(undo);
            return false;
          }
        } else if (e.definite() && depth == best_depth_ &&
                   frontier_.size() < 8) {
          frontier_.push_back(e.id);
        }
        model_.Revert(undo);
      }
    }
    return false;
  }

  std::size_t Remaining() const {
    std::size_t taken = 0;
    for (const std::uint64_t w : done_) {
      taken += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n_ - taken;
  }

  // --- session-consistency verification (standby + cache reads) -------------

  /// The directory a cache-served read's answer lives under (the client's
  /// cache line): the listing's own path, or the stat target's parent.
  static std::string CacheDirOf(const Event& e) {
    return e.kind == OpKind::kListDir ? e.path : fsns::ParentPath(e.path);
  }

  /// Whether `e`, if it executed, can change what a read of directory
  /// `dir`'s line observes: a change to a child of `dir`, to `dir` or an
  /// ancestor, or a create/mkdir below `dir` that materializes a child.
  /// A read is relevant to the reads of its own line.
  static bool Touches(const Event& e, const std::string& dir) {
    if (e.is_read()) return CacheDirOf(e) == dir;
    auto touches = [&](const std::string& path) {
      if (path.empty()) return false;
      if (fsns::ParentPath(path) == dir || fsns::IsPrefixPath(path, dir))
        return true;
      return (e.kind == OpKind::kCreate || e.kind == OpKind::kMkdir) &&
             fsns::IsPrefixPath(dir, path);
    };
    return touches(e.path) || (e.kind == OpKind::kRename && touches(e.path2));
  }

  /// Verifies every standby- or cache-served read against the witness
  /// linearization the core search produced (order_). Such a read is legal
  /// iff some prefix of the witness explains its observation.
  ///
  /// Standby reads are checked per client. The prefix
  ///   * includes every definite op this client completed before the read
  ///     was invoked (read-your-writes),
  ///   * is at least as long as the prefix chosen for the client's
  ///     previous standby read (monotonic reads), and
  ///   * contains no op invoked after the read completed (the server
  ///     cannot have applied the future).
  ///
  /// Cache-served reads are checked per (client, directory), since a
  /// client's session floor is per directory line. Only the ops that touch
  /// the directory (`Touches`) bound the prefix: the others cannot change
  /// what the line shows, and a bound drawn from them would only test
  /// which of several legal orders the witness happened to pick. The
  /// prefix
  ///   * includes every definite op touching the directory that this
  ///     client completed before the read was invoked,
  ///   * includes every definite mutation touching it that ANY client
  ///     completed before the read was invoked: a mutation's ack is
  ///     barriered on the lease patch or revocation, so a line consulted
  ///     after the ack cannot predate the mutation,
  ///   * is at least as long as the prefix chosen for the client's previous
  ///     cache read of the directory, and
  ///   * contains no op touching the directory invoked after the read
  ///     completed.
  /// Greedy-smallest prefix selection is complete: if any non-decreasing
  /// assignment of prefixes exists, the greedy one does too.
  ///
  /// The wire-level token contract is checked first: a responder that
  /// stamped applied_sn below the read's min_sn served below the session
  /// floor regardless of whether the value happened to match. A cache hit
  /// stamps its line's floor as min_sn.
  void CheckSessionReads(std::vector<Violation>& out) {
    if (session_reads_.empty()) return;
    // Witness position of each linearized op, as a prefix length.
    std::unordered_map<std::uint32_t, std::size_t> pos;
    for (std::size_t i = 0; i < order_.size(); ++i) pos[order_[i]->id] = i + 1;
    // (client, directory) of a cache read; (client, "") of a standby read.
    std::map<std::pair<int, std::string>, std::vector<const Event*>> groups;
    for (const Event* r : session_reads_) {
      groups[{r->client, r->via_cache ? CacheDirOf(*r) : std::string()}]
          .push_back(r);
    }
    for (auto& [key, reads] : groups) {
      std::sort(reads.begin(), reads.end(),
                [](const Event* a, const Event* b) {
                  return a->complete < b->complete;
                });
      const bool cache = reads.front()->via_cache;
      const std::string& dir = key.second;
      // Ops of the witness that bound this group's prefixes.
      std::vector<bool> relevant(order_.size(), true);
      if (cache) {
        for (std::size_t i = 0; i < order_.size(); ++i)
          relevant[i] = Touches(*order_[i], dir);
      }
      if (CheckReadGroup(reads, cache, relevant, pos, out)) {
        unexplained_groups_.insert(unexplained_groups_.end(), reads.begin(),
                                   reads.end());
      }
    }
  }

  /// One group of CheckSessionReads: a client's standby reads, or its
  /// cache reads of one directory, in completion order. True when the
  /// group's only fault is a read that no prefix of the witness explains.
  bool CheckReadGroup(
      const std::vector<const Event*>& reads, bool cache,
      const std::vector<bool>& relevant,
      const std::unordered_map<std::uint32_t, std::size_t>& pos,
      std::vector<Violation>& out) const {
    std::size_t floor = 0;    // monotonic-reads cursor (prefix length)
    Model model;
    std::size_t applied = 0;  // witness ops already replayed into model
    bool below_floor = false;
    bool unexplained = false;
    for (const Event* r : reads) {
      const char* via = cache ? "cache" : "standby";
      if (r->observed_sn < r->min_sn) {
        out.push_back({Violation::Type::kStaleRead,
                       std::string(via) + " answered " + r->path +
                           " below the session floor (applied sn " +
                           std::to_string(r->observed_sn) + " < min_sn " +
                           std::to_string(r->min_sn) + ")",
                       {r->id}});
        below_floor = true;
        continue;
      }
      // Read-your-writes, and for cache hits the lease barrier: the prefix
      // must cover every bounding op completed when the read was invoked.
      std::size_t lo = floor;
      for (const Event* e : ops_) {
        if (!e->definite() || e->complete > r->invoke) continue;
        if (e->client != r->client && !(cache && e->is_mutation())) continue;
        auto it = pos.find(e->id);
        if (it != pos.end() && relevant[it->second - 1])
          lo = std::max(lo, it->second);
      }
      // The longest prefix holding no bounding op invoked after the read
      // completed.
      std::size_t hi = 0;
      while (hi < order_.size() &&
             !(relevant[hi] && order_[hi]->invoke >= r->complete)) {
        ++hi;
      }
      // Replay the witness up to lo, then extend one op at a time until
      // some prefix reproduces the read's observation.
      while (applied < lo) {
        ReadView scratch;
        model.Step(*order_[applied], nullptr, &scratch);
        ++applied;
      }
      bool explained = false;
      while (true) {
        ReadView view;
        const StatusCode code = r->kind == OpKind::kGetFileInfo
                                    ? model.GetFileInfo(r->path, &view)
                                    : model.ListDir(r->path, &view);
        bool match = r->outcome == Outcome::kOk
                         ? (code == StatusCode::kOk && view == r->view)
                         : code == r->code;
        // Same implicit-directory allowance as the core search: a stat
        // of a dir that only materialized implicitly may answer NotFound.
        if (!match && r->kind == OpKind::kGetFileInfo &&
            r->outcome == Outcome::kError &&
            r->code == StatusCode::kNotFound && code == StatusCode::kOk &&
            model.IsImplicitDir(r->path)) {
          match = true;
        }
        if (match) {
          explained = true;
          break;
        }
        if (applied >= hi) break;
        ReadView scratch;
        model.Step(*order_[applied], nullptr, &scratch);
        ++applied;
      }
      if (!explained) {
        unexplained = true;
        out.push_back(
            {Violation::Type::kStaleRead,
             cache ? "cache-served read of " + r->path +
                         " observed state older than a mutation of its "
                         "directory acknowledged before it was invoked "
                         "(lease barrier violated) or no session-consistent "
                         "prefix"
                   : "standby read of " + r->path +
                         " matches no session-consistent prefix of the "
                         "witness linearization (read-your-writes / "
                         "monotonic reads)",
             {r->id}});
      }
      // Keep applied == floor so the next read's candidate scan starts
      // at its own lower bound (also after a violation).
      floor = applied;
    }
    return unexplained && !below_floor;
  }

  // --- classification -------------------------------------------------------

  void Classify(std::vector<Violation>& out) const {
    ClassifySplitBrain(out);
    ClassifyLostAck(out);
    ClassifyStaleRead(out);
    ClassifyDuplicateApply(out);
    if (out.empty()) {
      Violation v;
      v.type = Violation::Type::kNotLinearizable;
      v.detail = "no linearization found (deepest frontier " +
                 std::to_string(best_depth_) + "/" + std::to_string(n_) +
                 " ops)";
      v.events = frontier_;
      out.push_back(std::move(v));
    }
  }

  /// Two acknowledged creates of one path with no possible removal
  /// between them: only two concurrently-serving actives can both say ok.
  void ClassifySplitBrain(std::vector<Violation>& out) const {
    for (const Event* a : ops_) {
      if (a->kind != OpKind::kCreate || a->outcome != Outcome::kOk) continue;
      for (const Event* b : ops_) {
        if (b->kind != OpKind::kCreate || b->outcome != Outcome::kOk ||
            b->path != a->path || b->invoke <= a->complete) {
          continue;
        }
        bool removed = false;
        for (const Event* d : ops_) {
          if (!MayHaveExecuted(*d) || !Destroys(*d, a->path)) continue;
          const bool before_first = d->definite() && d->complete < a->invoke;
          if (!before_first && d->invoke < b->complete) {
            removed = true;
            break;
          }
        }
        if (!removed) {
          out.push_back({Violation::Type::kSplitBrainWrite,
                         "both creates of " + a->path +
                             " acknowledged with no removal in between",
                         {a->id, b->id}});
          return;
        }
      }
    }
  }

  /// An acknowledged create/mkdir later read back as NotFound with
  /// nothing that could have removed it.
  void ClassifyLostAck(std::vector<Violation>& out) const {
    for (const Event* m : ops_) {
      if ((m->kind != OpKind::kCreate && m->kind != OpKind::kMkdir) ||
          m->outcome != Outcome::kOk) {
        continue;
      }
      for (const Event* r : ops_) {
        if (!r->is_read() || r->outcome != Outcome::kError ||
            r->code != StatusCode::kNotFound || r->path != m->path ||
            r->invoke <= m->complete) {
          continue;
        }
        bool removed = false;
        for (const Event* d : ops_) {
          if (!MayHaveExecuted(*d) || !Destroys(*d, m->path)) continue;
          const bool before_write = d->definite() && d->complete < m->invoke;
          if (!before_write && d->invoke < r->complete) {
            removed = true;
            break;
          }
        }
        if (!removed) {
          out.push_back({Violation::Type::kLostAck,
                         "acknowledged " + std::string(OpKindName(m->kind)) +
                             " of " + m->path + " vanished",
                         {m->id, r->id}});
          return;
        }
      }
    }
  }

  /// An acknowledged delete after which a read still observed the path,
  /// with nothing that could have recreated it.
  void ClassifyStaleRead(std::vector<Violation>& out) const {
    for (const Event* d : ops_) {
      if (d->kind != OpKind::kDelete || d->outcome != Outcome::kOk) continue;
      for (const Event* r : ops_) {
        if (!r->is_read() || r->outcome != Outcome::kOk ||
            r->path != d->path || r->invoke <= d->complete) {
          continue;
        }
        bool recreated = false;
        for (const Event* c : ops_) {
          if (!MayHaveExecuted(*c) || !Materializes(*c, d->path)) continue;
          const bool before_delete = c->definite() && c->complete < d->invoke;
          if (!before_delete && c->invoke < r->complete) {
            recreated = true;
            break;
          }
        }
        if (!recreated) {
          out.push_back({Violation::Type::kStaleRead,
                         "read of " + d->path +
                             " observed state an acknowledged delete removed",
                         {d->id, r->id}});
          return;
        }
      }
    }
  }

  /// A read observing more blocks than AddBlock was ever even attempted
  /// for the path: some journal record was applied more than once.
  void ClassifyDuplicateApply(std::vector<Violation>& out) const {
    for (const Event* r : ops_) {
      if (r->kind != OpKind::kGetFileInfo || r->outcome != Outcome::kOk ||
          r->view.is_dir) {
        continue;
      }
      std::uint64_t attempts = 0;
      for (const Event* a : ops_) {
        if (a->kind == OpKind::kAddBlock && a->path == r->path &&
            MayHaveExecuted(*a) && a->invoke < r->complete) {
          ++attempts;
        }
      }
      if (r->view.block_count > attempts) {
        out.push_back(
            {Violation::Type::kDuplicateApply,
             "read of " + r->path + " observed " +
                 std::to_string(r->view.block_count) + " blocks but only " +
                 std::to_string(attempts) + " addblock attempts preceded it",
             {r->id}});
        return;
      }
    }
  }

  const History& history_;
  const std::unordered_set<std::uint32_t>& linearized_;
  std::vector<const Event*> ops_;
  std::vector<const Event*> session_reads_;  ///< session-checked, not core
  std::vector<const Event*> unexplained_groups_;
  std::vector<const Event*> order_;  ///< witness linearization on success
  std::size_t n_ = 0;
  std::vector<std::uint64_t> done_;
  std::size_t definite_left_ = 0;
  Model model_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t states_ = 0;
  bool budget_exhausted_ = false;
  std::size_t best_depth_ = 0;
  mutable std::vector<std::uint32_t> frontier_;
};

}  // namespace

const char* ViolationTypeName(Violation::Type type) {
  switch (type) {
    case Violation::Type::kLostAck:
      return "lost_ack";
    case Violation::Type::kDuplicateApply:
      return "duplicate_apply";
    case Violation::Type::kStaleRead:
      return "stale_read";
    case Violation::Type::kSplitBrainWrite:
      return "split_brain_write";
    case Violation::Type::kReplicaDivergence:
      return "replica_divergence";
    case Violation::Type::kInvariantProbe:
      return "invariant_probe";
    case Violation::Type::kNotLinearizable:
      return "not_linearizable";
  }
  return "?";
}

std::string FormatViolation(const History& history, const Violation& v) {
  std::string s = std::string(ViolationTypeName(v.type)) + ": " + v.detail;
  for (const std::uint32_t id : v.events) {
    if (id < history.size()) {
      s += "\n    " + history.Format(history.events()[id]);
    }
  }
  return s;
}

CheckResult CheckHistory(const History& history) {
  // The witness is one linearization of many, and a session read that no
  // prefix of it explains may fit another order of the mutations it
  // overlaps (two concurrent creates the server ran in the other order).
  // Each group holding such a read is searched again as linearizable ops,
  // which is stronger than session consistency; the history passes once a
  // linearization exists and every remaining session read fits it. A read
  // no linearization explains keeps the first search's violation.
  std::unordered_set<std::uint32_t> linearized;
  CheckResult first;
  for (;;) {
    Search search(history, linearized);
    CheckResult result = search.Run();
    if (result.linearizable) return result;
    if (linearized.empty()) first = result;
    const std::size_t before = linearized.size();
    for (const Event* e : search.unexplained_groups()) linearized.insert(e->id);
    if (linearized.size() == before) return first;
  }
}

}  // namespace mams::check
