#include "rewriting/minicon.h"

#include <algorithm>
#include <set>

#include "rewriting/pipeline.h"
#include "rewriting/two_space_unifier.h"

namespace aqv {

namespace {

/// MCD formation for one view: grows a seed unification until the MiniCon
/// property holds, branching over the view subgoals a forced query subgoal
/// can map to.
class McdBuilder {
 public:
  McdBuilder(const Query& q, const View& view,
             std::vector<ViewAtomCandidate>* out, CandidateDeduper* seen)
      : q_(q), view_(view), out_(out), seen_(seen) {
    distinguished_ = q.DistinguishedMask();
    var_occ_ = q.VarOccurrences();
    head_var_.assign(view.definition.num_vars(), false);
    for (Term t : view.definition.head().args) {
      if (t.is_var()) head_var_[t.var()] = true;
    }
  }

  /// Seeds an MCD at query subgoal `gi` mapped onto view subgoal `vg`.
  void Seed(int gi, const Atom& vg) {
    const Atom& g = q_.body()[gi];
    if (vg.pred != g.pred || vg.arity() != g.arity()) return;
    TwoSpaceUnifier u(q_.num_vars(), view_.definition.num_vars());
    if (!u.UnifyAtoms(g, vg)) return;
    Close(u, {gi});
  }

 private:
  bool Exposed(const TwoSpaceUnifier& u, int node) const {
    if (u.PinnedConst(node).has_value()) return true;
    for (int m : u.ClassMembers(node)) {
      if (m >= q_.num_vars() && head_var_[m - q_.num_vars()]) return true;
    }
    return false;
  }

  /// Finds a query subgoal that C2 forces into the MCD, or -2 if the state
  /// is dead (an unexposed distinguished variable with nothing left to
  /// cover), or -1 if the MCD is complete.
  int FindForcedSubgoal(const TwoSpaceUnifier& u,
                        const std::vector<int>& covered) const {
    std::vector<bool> in_covered(q_.body().size(), false);
    for (int i : covered) in_covered[i] = true;
    std::set<VarId> covered_vars;
    for (int i : covered) {
      for (Term t : q_.body()[i].args) {
        if (t.is_var()) covered_vars.insert(t.var());
      }
    }
    bool dead = false;
    for (VarId x : covered_vars) {
      if (Exposed(u, u.NodeOfQVar(x))) continue;
      // x is glued to existential view variables only.
      for (int s : var_occ_[x]) {
        if (!in_covered[s]) return s;  // C2: must cover s
      }
      if (distinguished_[x]) dead = true;  // C1 unrecoverable
    }
    return dead ? -2 : -1;
  }

  void Close(const TwoSpaceUnifier& u, std::vector<int> covered) {
    int forced = FindForcedSubgoal(u, covered);
    if (forced == -2) return;
    if (forced == -1) {
      std::optional<ViewAtomCandidate> cand = MakeCandidateFromUnifier(
          q_, view_, u, covered, /*require_distinguished_exposed=*/true);
      if (!cand.has_value()) return;
      if (seen_->insert(*cand).second) {
        out_->push_back(std::move(*cand));
      }
      return;
    }
    const Atom& g = q_.body()[forced];
    covered.push_back(forced);
    for (const Atom& vg : view_.definition.body()) {
      if (vg.pred != g.pred || vg.arity() != g.arity()) continue;
      TwoSpaceUnifier next = u;
      if (!next.UnifyAtoms(g, vg)) continue;
      Close(next, covered);
    }
  }

  const Query& q_;
  const View& view_;
  std::vector<ViewAtomCandidate>* out_;
  CandidateDeduper* seen_;
  std::vector<bool> distinguished_;
  std::vector<std::vector<int>> var_occ_;
  std::vector<bool> head_var_;
};

/// Exact-cover combination of MCDs (disjoint coverage, lowest-uncovered
/// -subgoal branching enumerates each combination exactly once).
class McdCombiner {
 public:
  McdCombiner(const Query& q, const ViewSet& views,
              const std::vector<ViewAtomCandidate>& mcds,
              const MiniConOptions& options, MiniConResult* result)
      : q_(q), views_(views), mcds_(mcds), options_(options), result_(result) {
    full_mask_ = q.body().empty()
                     ? 0
                     : (q.body().size() == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << q.body().size()) - 1);
  }

  Status Run() { return Recurse(0); }

 private:
  Status Emit() {
    // The MiniCon theorem covers comparison-free inputs; verify otherwise.
    const bool verify = q_.has_comparisons();
    AQV_ASSIGN_OR_RETURN(
        ExpansionCheck check,
        BuildAndVerify(q_, views_, chosen_, /*include_comparisons=*/verify,
                       verify ? VerifyLevel::kContained : VerifyLevel::kNone,
                       options_.containment));
    if (verify && check.rewriting.has_value()) {
      ++result_->candidates_checked;
    }
    if (!check.passed) return Status::OK();
    if (seen_.Insert(*check.rewriting)) {
      result_->rewritings.disjuncts.push_back(std::move(*check.rewriting));
    }
    return Status::OK();
  }

  Status Recurse(uint64_t covered) {
    if (++result_->combinations_enumerated > options_.max_combinations) {
      return Status::ResourceExhausted(
          "MiniCon combinations exceeded max_combinations=" +
          std::to_string(options_.max_combinations));
    }
    if (covered == full_mask_) return Emit();
    int target = 0;
    while (covered & (uint64_t{1} << target)) ++target;
    for (const ViewAtomCandidate& m : mcds_) {
      if (!(m.covered_mask & (uint64_t{1} << target))) continue;
      if (m.covered_mask & covered) continue;  // must be disjoint
      chosen_.push_back(&m);
      Status st = Recurse(covered | m.covered_mask);
      chosen_.pop_back();
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  const Query& q_;
  const ViewSet& views_;
  const std::vector<ViewAtomCandidate>& mcds_;
  const MiniConOptions& options_;
  MiniConResult* result_;
  uint64_t full_mask_ = 0;
  std::vector<const ViewAtomCandidate*> chosen_;
  QueryDeduper seen_;
};

}  // namespace

Result<MiniConResult> MiniConRewrite(const Query& q, const ViewSet& views,
                                     const MiniConOptions& options) {
  AQV_RETURN_NOT_OK(q.Validate());
  if (q.body().size() > 64) {
    return Status::Unimplemented(
        "MiniCon limited to 64 subgoals (covered-set bitmasks); query has " +
        std::to_string(q.body().size()));
  }
  MiniConResult result;
  CandidateDeduper seen;
  for (const View& view : views.views()) {
    McdBuilder builder(q, view, &result.mcds, &seen);
    for (int gi = 0; gi < static_cast<int>(q.body().size()); ++gi) {
      for (const Atom& vg : view.definition.body()) {
        builder.Seed(gi, vg);
      }
    }
  }

  McdCombiner combiner(q, views, result.mcds, options, &result);
  AQV_RETURN_NOT_OK(combiner.Run());
  return result;
}

}  // namespace aqv
