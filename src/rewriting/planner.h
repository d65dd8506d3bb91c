/// \file
/// Cost-based plan selection: enumerate equivalent rewritings of a query
/// with the LMSS search (rewriting/lmss.h), cost each candidate — and
/// optionally the direct "no views" plan — under a bound-variable-aware
/// left-deep join model, and pick the cheapest. LMSS alone suffices: every
/// minimal equivalent rewriting is isomorphic to a subset of its candidate
/// pool, so Bucket and MiniCon could add only duplicates or non-minimal
/// plans; tests/test_planner.cc holds the planner to an all-engine
/// reference. The cost model simulates the evaluator's own greedy atom
/// order (eval/evaluator.h) but keeps every variable to the last step,
/// while the evaluator deduplicates bindings once variables die; an
/// estimate is therefore an upper bound of the intermediate rows
/// EvaluateQuery reports in EvalStats, and tests check only that the
/// model orders plans as those counts do.

#ifndef AQV_REWRITING_PLANNER_H_
#define AQV_REWRITING_PLANNER_H_

#include <map>
#include <string>
#include <vector>

#include "cq/query.h"
#include "eval/database.h"
#include "rewriting/engine.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Per-relation statistics the planner costs plans against:
/// cardinalities, plus (when measured from real data) per-column distinct
/// counts.
struct ExtentStats {
  std::map<PredId, uint64_t> cardinality;
  /// Measured per-column distinct counts, keyed like `cardinality`.
  /// Entries are optional: predicates without one are costed with the
  /// uniform-domain arity-ratio guess (see EstimatePlanCost).
  std::map<PredId, std::vector<uint64_t>> column_distinct;

  /// Cardinality of `pred` (0 when unknown/absent).
  uint64_t Card(PredId pred) const {
    auto it = cardinality.find(pred);
    return it == cardinality.end() ? 0 : it->second;
  }

  /// Measured per-column distinct counts of `pred`, or nullptr.
  const std::vector<uint64_t>* Distinct(PredId pred) const {
    auto it = column_distinct.find(pred);
    return it == column_distinct.end() ? nullptr : &it->second;
  }

  /// Full measured snapshot of `db`: relation sizes plus the per-column
  /// distinct counts the relations computed at SortDedup/first-demand
  /// time (eval/index.h RelationStats, via Database::Stats).
  static ExtentStats FromDatabase(const Database& db);
};

/// \brief Estimated execution cost of a CQ under a left-deep nested-loop
/// model that mirrors the evaluator's greedy atom order: at each step the
/// unused atom with the most bound argument positions joins next
/// (tie-break on cardinality). An atom of cardinality c probed with bound
/// positions B contributes an effective fan-out of
///
///   c * prod_{p in B} 1/distinct(p)        (measured column stats)
///   c^((a-b)/a), b = |B|, a = arity        (fallback guess: uniform
///                                           per-column domain of c^(1/a)
///                                           values)
///
/// where B covers bound variables, constants, and within-atom repeated
/// variables. The cost is the sum of intermediate result sizes with every
/// variable kept to the last step, an upper bound of the quantity
/// EvalStats::intermediate_rows measures; with measured stats the
/// estimate tracks skew the arity-ratio guess is blind to (a join through
/// a 2-valued column fans out c/2, not c^(1/2)).
double EstimatePlanCost(const Query& q, const ExtentStats& stats);

/// One plan the planner considered.
struct PlanChoice {
  Query rewriting;
  double estimated_cost = 0;
  /// True when every body atom is a view predicate.
  bool complete = false;
  /// "lmss" for a rewriting, or "direct" for the no-views plan.
  std::string engine;
};

/// Options for plan selection.
struct PlannerOptions {
  /// Options (oracle, budgets, LMSS knobs) handed to the LMSS search;
  /// lmss.max_rewritings is overridden with the planner's cap of 64 plans.
  EngineOptions engine;
  /// Also consider answering directly over base relations (the "no views"
  /// plan). Requires base stats to be meaningful.
  bool include_direct_plan = true;
};

/// Outcome of plan selection.
struct PlannerResult {
  /// Every plan considered: LMSS's rewritings in enumeration order, then
  /// the direct plan when enabled. Non-empty iff some plan exists.
  std::vector<PlanChoice> plans;
  /// Index of the cheapest plan in `plans`, or -1 when none.
  int best = -1;
  /// The LMSS search's counters (zeros when it failed).
  RewriteStats stats;
};

/// \brief The view-selection optimization loop in one call: enumerate up
/// to 64 equivalent rewritings of `q` over `views` with LMSS, cost each
/// against the view-extent statistics, optionally cost the direct plan
/// (LMSS's minimized query, or `q` when LMSS failed) against base
/// statistics, and pick the cheapest. The chosen rewriting evaluates over
/// the extents database (merged with base stats for partial rewritings);
/// the direct plan evaluates over the base database.
///
/// When LMSS fails with a budget/size error (kResourceExhausted,
/// kUnimplemented) only the direct plan is left; kInvalidArgument and
/// internal errors propagate.
[[nodiscard]] Result<PlannerResult> ChooseBestPlan(const Query& q, const ViewSet& views,
                                     const ExtentStats& view_stats,
                                     const ExtentStats& base_stats,
                                     const PlannerOptions& options = {});

}  // namespace aqv

#endif  // AQV_REWRITING_PLANNER_H_
