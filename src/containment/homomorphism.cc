#include "containment/homomorphism.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace aqv {

namespace {

/// Backtracking engine shared by the find-one and for-each entry points.
class HomSearch {
 public:
  HomSearch(const AtomSpan& from, const AtomSpan& to,
            const HomSearchOptions& opts,
            std::function<bool(const Substitution&)> cb)
      : from_(from),
        to_(to),
        opts_(opts),
        cb_(std::move(cb)),
        subst_(from.num_vars),
        first_target_(from.body_size + 1),
        mapped_(from.body_size, false) {
    // Candidate targets of each from-atom: the to-atoms with its
    // predicate, in target order. Sized by the two bodies, not the catalog.
    int total = 0;
    for (int i = 0; i < from_.body_size; ++i) {
      for (int j = 0; j < to_.body_size; ++j) {
        total += to_.body[j].pred == from_.body[i].pred;
      }
    }
    targets_.reserve(total);
    for (int i = 0; i < from_.body_size; ++i) {
      first_target_[i] = static_cast<int>(targets_.size());
      for (int j = 0; j < to_.body_size; ++j) {
        if (to_.body[j].pred == from_.body[i].pred) targets_.push_back(j);
      }
    }
    first_target_[from_.body_size] = static_cast<int>(targets_.size());
  }

  /// Runs the search. Returns the visit count, or an error on budget
  /// exhaustion. Sets stopped_early if the callback returned false.
  Result<int64_t> Run() {
    if (opts_.map_head) {
      const Atom& hf = *from_.head;
      const Atom& ht = *to_.head;
      if (hf.arity() != ht.arity()) return int64_t{0};
      for (int i = 0; i < hf.arity(); ++i) {
        if (!UnifyArg(hf.args[i], ht.args[i])) return int64_t{0};
      }
    }
    Status st = Recurse(0);
    if (!st.ok()) return st;
    return found_;
  }

 private:
  bool UnifyArg(Term from_arg, Term to_arg) {
    if (from_arg.is_const()) return from_arg == to_arg;
    return subst_.BindOrCheck(from_arg.var(), to_arg);
  }

  /// Quick compatibility test of from-atom `a` against to-atom `b` under the
  /// current partial substitution, without binding.
  bool Compatible(const Atom& a, const Atom& b) const {
    for (int i = 0; i < a.arity(); ++i) {
      Term fa = a.args[i];
      Term tb = b.args[i];
      if (fa.is_const()) {
        if (fa != tb) return false;
      } else if (subst_.IsBound(fa.var()) && subst_.Get(fa.var()) != tb) {
        return false;
      }
    }
    return true;
  }

  /// Chooses the unmapped from-atom with the fewest compatible targets
  /// (fail-first), which matters on self-join-heavy queries. Returns -1
  /// when all atoms are mapped.
  int PickAtom(int* num_candidates) const {
    int best = -1;
    int best_count = INT32_MAX;
    for (int i = 0; i < from_.body_size; ++i) {
      if (mapped_[i]) continue;
      const Atom& a = from_.body[i];
      int count = 0;
      for (int k = first_target_[i]; k < first_target_[i + 1]; ++k) {
        if (Compatible(a, to_.body[targets_[k]])) ++count;
      }
      if (count < best_count) {
        best_count = count;
        best = i;
        if (count == 0) break;
      }
    }
    *num_candidates = best == -1 ? 0 : best_count;
    return best;
  }

  Status Recurse(int depth) {
    if (stopped_early_) return Status::OK();
    if (++nodes_ > opts_.node_budget) {
      return Status::ResourceExhausted(
          "homomorphism search exceeded node budget of " +
          std::to_string(opts_.node_budget));
    }
    if (depth == from_.body_size) {
      ++found_;
      if (!cb_(subst_)) stopped_early_ = true;
      return Status::OK();
    }
    int candidates = 0;
    int pick = PickAtom(&candidates);
    if (pick < 0 || candidates == 0) return Status::OK();
    const Atom& a = from_.body[pick];
    mapped_[pick] = true;
    for (int k = first_target_[pick]; k < first_target_[pick + 1]; ++k) {
      const Atom& b = to_.body[targets_[k]];
      size_t cp = subst_.Checkpoint();
      bool ok = true;
      for (int i = 0; i < a.arity() && ok; ++i) {
        ok = UnifyArg(a.args[i], b.args[i]);
      }
      if (ok) {
        Status st = Recurse(depth + 1);
        if (!st.ok()) return st;
        if (stopped_early_) {
          subst_.Rollback(cp);
          break;
        }
      }
      subst_.Rollback(cp);
    }
    mapped_[pick] = false;
    return Status::OK();
  }

  const AtomSpan from_;
  const AtomSpan to_;
  const HomSearchOptions& opts_;
  // By value: callers routinely pass lambdas, which would otherwise bind a
  // reference to a std::function temporary that dies with the constructor
  // call (a Release-build stack-use-after-scope, caught by ASan).
  std::function<bool(const Substitution&)> cb_;
  Substitution subst_;
  // targets_[first_target_[i] .. first_target_[i + 1]) are from-atom i's
  // candidate to-atoms.
  std::vector<int> targets_;
  std::vector<int> first_target_;
  std::vector<bool> mapped_;
  uint64_t nodes_ = 0;
  int64_t found_ = 0;
  bool stopped_early_ = false;
};

}  // namespace

Result<bool> FindHomomorphism(const AtomSpan& from, const AtomSpan& to,
                              const HomSearchOptions& options,
                              Substitution* out) {
  bool found = false;
  auto cb = [&](const Substitution& s) {
    found = true;
    if (out != nullptr) *out = s;
    return false;  // stop at first
  };
  HomSearch search(from, to, options, cb);
  AQV_ASSIGN_OR_RETURN(int64_t n, search.Run());
  (void)n;
  return found;
}

Result<bool> FindHomomorphism(const Query& from, const Query& to,
                              const HomSearchOptions& options,
                              Substitution* out) {
  return FindHomomorphism(AtomSpan::Of(from), AtomSpan::Of(to), options, out);
}

Result<int64_t> ForEachHomomorphism(
    const Query& from, const Query& to, const HomSearchOptions& options,
    const std::function<bool(const Substitution&)>& cb) {
  HomSearch search(AtomSpan::Of(from), AtomSpan::Of(to), options, cb);
  return search.Run();
}

}  // namespace aqv
