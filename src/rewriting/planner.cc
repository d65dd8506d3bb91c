#include "rewriting/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace aqv {

ExtentStats ExtentStats::FromDatabase(const Database& db) {
  ExtentStats stats;
  for (PredId p : db.Predicates()) {
    std::shared_ptr<const RelationStats> measured = db.Stats(p);
    stats.cardinality[p] = measured->cardinality;
    std::vector<uint64_t> distinct;
    distinct.reserve(measured->columns.size());
    for (const RelationStats::Column& col : measured->columns) {
      distinct.push_back(col.distinct);
    }
    stats.column_distinct[p] = std::move(distinct);
  }
  return stats;
}

namespace {

/// Bound argument positions of `a` given the currently-bound variable
/// set. With `count_repeats`, repeated occurrences of an unbound variable
/// within the atom also count — the evaluator filters them per matched
/// row, so they shrink the fan-out, but its PlanAtomOrder does *not*
/// score them when choosing the next atom; the cost model keeps the two
/// uses separate so it simulates the order the evaluator actually picks.
/// When `positions` is non-null, the counted argument positions are
/// appended to it (for per-column selectivity lookup).
int BoundPositions(const Atom& a, const std::vector<bool>& bound,
                   bool count_repeats, std::vector<int>* positions = nullptr) {
  int count = 0;
  std::vector<VarId> seen;
  for (int i = 0; i < a.arity(); ++i) {
    Term t = a.args[i];
    bool counted = false;
    if (t.is_const()) {
      counted = true;
    } else if (bound[t.var()]) {
      counted = true;
    } else if (std::find(seen.begin(), seen.end(), t.var()) != seen.end()) {
      counted = count_repeats;
    } else {
      seen.push_back(t.var());
    }
    if (counted) {
      ++count;
      if (positions != nullptr) positions->push_back(i);
    }
  }
  return count;
}

/// Expected matches per probe of an atom with cardinality `card` and
/// `arity` columns, `bound` of which are fixed: uniform columns over a
/// domain of card^(1/arity) values give card / (card^(1/arity))^bound.
/// The fallback when no measured column stats exist.
double GuessedFanout(double card, int arity, int bound) {
  if (arity <= 0) return 1.0;
  if (bound >= arity) bound = arity;
  return std::pow(card, static_cast<double>(arity - bound) /
                            static_cast<double>(arity));
}

/// Expected matches per probe from measured statistics: each bound column
/// p keeps a 1/distinct(p) fraction of the rows (independence assumed).
double MeasuredFanout(double card, const std::vector<uint64_t>& distinct,
                      const std::vector<int>& bound_positions) {
  double fanout = card;
  for (int pos : bound_positions) {
    uint64_t d = pos < static_cast<int>(distinct.size()) ? distinct[pos] : 0;
    fanout /= static_cast<double>(std::max<uint64_t>(1, d));
  }
  return fanout;
}

/// Rewritings lmss enumerates and the planner costs.
constexpr int kMaxPlans = 64;

/// Budget and size overruns leave only the direct plan; anything else is a
/// caller or library bug and must surface.
bool IsSkippableEngineFailure(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kUnimplemented;
}

}  // namespace

double EstimatePlanCost(const Query& q, const ExtentStats& stats) {
  int n = static_cast<int>(q.body().size());
  std::vector<bool> used(n, false);
  std::vector<bool> bound(static_cast<size_t>(q.num_vars()), false);
  double cost = 0;
  double running = 1;
  for (int step = 0; step < n; ++step) {
    // Mirror the evaluator's greedy order: most bound positions first,
    // tie-break on cardinality.
    int best = -1;
    int best_bound = -1;
    double best_card = 0;
    for (int i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Atom& a = q.body()[i];
      int b = BoundPositions(a, bound, /*count_repeats=*/false);
      double card = static_cast<double>(
          std::max<uint64_t>(1, stats.Card(a.pred)));
      if (b > best_bound || (b == best_bound && card < best_card)) {
        best = i;
        best_bound = b;
        best_card = card;
      }
    }
    const Atom& a = q.body()[best];
    used[best] = true;
    // Fan-out: within-atom duplicates do filter, even though they do not
    // influence the order above. Measured per-column distinct counts give
    // the selectivity of each bound position; predicates never measured
    // fall back to the uniform-domain guess.
    std::vector<int> fanout_positions;
    int fanout_bound =
        BoundPositions(a, bound, /*count_repeats=*/true, &fanout_positions);
    const std::vector<uint64_t>* distinct = stats.Distinct(a.pred);
    running *= distinct != nullptr
                   ? MeasuredFanout(best_card, *distinct, fanout_positions)
                   : GuessedFanout(best_card, a.arity(), fanout_bound);
    cost += running;
    for (Term t : a.args) {
      if (t.is_var()) bound[t.var()] = true;
    }
  }
  return cost;
}

Result<PlannerResult> ChooseBestPlan(const Query& q, const ViewSet& views,
                                     const ExtentStats& view_stats,
                                     const ExtentStats& base_stats,
                                     const PlannerOptions& options) {
  // Partial rewritings read views and base relations; merge the stats
  // with view extents taking precedence.
  ExtentStats merged = base_stats;
  for (const auto& [pred, card] : view_stats.cardinality) {
    merged.cardinality[pred] = card;
  }
  for (const auto& [pred, distinct] : view_stats.column_distinct) {
    merged.column_distinct[pred] = distinct;
  }

  RewriteRequest request;
  request.query.disjuncts.push_back(q);
  request.views = &views;
  request.options = options.engine;
  request.options.lmss.max_rewritings = kMaxPlans;
  Result<RewriteResponse> lmss = RunEngine("lmss", request);
  if (!lmss.ok() && !IsSkippableEngineFailure(lmss.status())) {
    return lmss.status();
  }

  PlannerResult result;
  Query minimized = q;
  if (lmss.ok()) {
    result.stats = lmss->stats;
    minimized = std::move(lmss->minimized.disjuncts.front());
    for (Query& rw : lmss->rewritings.disjuncts) {
      PlanChoice plan;
      plan.engine = "lmss";
      plan.complete = UsesOnlyViews(rw, views);
      plan.estimated_cost = EstimatePlanCost(rw, merged);
      plan.rewriting = std::move(rw);
      result.plans.push_back(std::move(plan));
    }
  }

  if (options.include_direct_plan) {
    PlanChoice direct;
    direct.rewriting = std::move(minimized);
    direct.engine = "direct";
    direct.complete = false;
    direct.estimated_cost = EstimatePlanCost(direct.rewriting, base_stats);
    result.plans.push_back(std::move(direct));
  }
  for (int i = 0; i < static_cast<int>(result.plans.size()); ++i) {
    if (result.best < 0 ||
        result.plans[i].estimated_cost <
            result.plans[result.best].estimated_cost) {
      result.best = i;
    }
  }
  return result;
}

}  // namespace aqv
