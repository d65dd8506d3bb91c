#include "rewriting/lmss.h"

#include <algorithm>

#include "containment/minimize.h"
#include "rewriting/pipeline.h"
#include "views/expansion.h"

namespace aqv {

namespace {

/// DFS state for the covering-subset search.
class LmssSearch {
 public:
  LmssSearch(const Query& q, const ViewSet& views,
             const std::vector<ViewAtomCandidate>& pool,
             const LmssOptions& options, LmssResult* result)
      : q_(q), views_(views), pool_(pool), options_(options), result_(result) {
    full_mask_ = q.body().empty()
                     ? 0
                     : (q.body().size() == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << q.body().size()) - 1);
    max_atoms_ = options.max_rewriting_atoms < 0
                     ? static_cast<int>(q.body().size())
                     : options.max_rewriting_atoms;
    banned_.assign(pool.size(), false);
  }

  Status Run() { return Recurse(0); }

 private:
  bool Done() const {
    return static_cast<int>(result_->rewritings.size()) >=
           options_.max_rewritings;
  }

  /// Tests one candidate set; records the rewriting if it is equivalent.
  Status TestSubset() {
    ++result_->subsets_tested;
    if (result_->subsets_tested > options_.max_subsets) {
      return Status::ResourceExhausted(
          "LMSS search exceeded max_subsets=" +
          std::to_string(options_.max_subsets));
    }
    if (options_.allow_base_atoms && !options_.allow_trivial) {
      bool any_view = false;
      for (const ViewAtomCandidate* pick : chosen_) {
        if (pick->view != nullptr) any_view = true;
      }
      if (!any_view) return Status::OK();
    }
    AQV_ASSIGN_OR_RETURN(
        ExpansionCheck check,
        BuildAndVerify(q_, views_, chosen_,
                       /*include_comparisons=*/q_.has_comparisons(),
                       VerifyLevel::kEquivalent, options_.containment));
    if (check.rewriting.has_value()) ++result_->candidates_checked;
    if (!check.passed) return Status::OK();
    if (seen_rewritings_.Insert(*check.rewriting)) {
      result_->rewritings.push_back(std::move(*check.rewriting));
      result_->exists = true;
    }
    return Status::OK();
  }

  /// Strengthening pass: supersets of a failed cover, up to the size
  /// bound. Covers alone suffice for the classic comparison-free
  /// completeness argument.
  Status Extend(size_t from_index) {
    if (Done()) return Status::OK();
    if (static_cast<int>(chosen_.size()) >= max_atoms_) return Status::OK();
    for (size_t i = from_index; i < pool_.size(); ++i) {
      if (banned_[i]) continue;
      chosen_.push_back(&pool_[i]);
      AQV_RETURN_NOT_OK(TestSubset());
      if (!Done()) AQV_RETURN_NOT_OK(Extend(i + 1));
      chosen_.pop_back();
      if (Done()) break;
    }
    return Status::OK();
  }

  Status Recurse(uint64_t covered) {
    if (Done()) return Status::OK();
    if (covered == full_mask_) {
      AQV_RETURN_NOT_OK(TestSubset());
      if (!Done()) AQV_RETURN_NOT_OK(Extend(0));
      return Status::OK();
    }
    if (static_cast<int>(chosen_.size()) >= max_atoms_) return Status::OK();
    // Lowest uncovered subgoal.
    int target = 0;
    while (covered & (uint64_t{1} << target)) ++target;

    // Branch over candidates covering `target`; ban each tried candidate in
    // subsequent branches of this node so every subset appears once.
    std::vector<size_t> tried;
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (banned_[i]) continue;
      if (!(pool_[i].covered_mask & (uint64_t{1} << target))) continue;
      chosen_.push_back(&pool_[i]);
      banned_[i] = true;
      tried.push_back(i);
      Status st = Recurse(covered | pool_[i].covered_mask);
      chosen_.pop_back();
      if (!st.ok()) {
        for (size_t j : tried) banned_[j] = false;
        return st;
      }
      if (Done()) break;
    }
    for (size_t j : tried) banned_[j] = false;
    return Status::OK();
  }

  const Query& q_;
  const ViewSet& views_;
  const std::vector<ViewAtomCandidate>& pool_;
  const LmssOptions& options_;
  LmssResult* result_;
  uint64_t full_mask_ = 0;
  int max_atoms_ = 0;
  std::vector<const ViewAtomCandidate*> chosen_;
  std::vector<bool> banned_;
  QueryDeduper seen_rewritings_;
};

}  // namespace

Result<LmssResult> FindEquivalentRewritings(const Query& q,
                                            const ViewSet& views,
                                            const LmssOptions& options) {
  AQV_RETURN_NOT_OK(q.Validate());
  LmssResult result;
  AQV_ASSIGN_OR_RETURN(result.minimized_query,
                       Minimize(q, options.containment));
  const Query& mq = result.minimized_query;

  AQV_ASSIGN_OR_RETURN(std::vector<ViewAtomCandidate> pool,
                       CanonicalViewTuples(mq, views, options.candidates));
  if (options.allow_base_atoms) {
    // Partial rewritings: each base subgoal of q can cover itself.
    for (int i = 0; i < static_cast<int>(mq.body().size()); ++i) {
      ViewAtomCandidate base;
      base.view = nullptr;
      base.atom = mq.body()[i];
      base.covered = {i};
      base.covered_mask = uint64_t{1} << i;
      pool.push_back(std::move(base));
    }
  }
  result.num_candidates = pool.size();

  LmssSearch search(mq, views, pool, options, &result);
  AQV_RETURN_NOT_OK(search.Run());
  return result;
}

Result<bool> ExistsEquivalentRewriting(const Query& q, const ViewSet& views,
                                       const LmssOptions& options) {
  LmssOptions decide = options;
  decide.max_rewritings = 1;
  AQV_ASSIGN_OR_RETURN(LmssResult r,
                       FindEquivalentRewritings(q, views, decide));
  return r.exists;
}

}  // namespace aqv
