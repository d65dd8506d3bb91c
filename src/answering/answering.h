/// \file
/// Umbrella header of the `answering` module: the end-to-end
/// answering-queries-using-views pipeline the rest of the repository
/// builds toward. A single call — AnswerQuery — takes a query, the
/// available views, and a base database (or pre-materialized view
/// extents), and produces the answer *relation*, not just a rewriting:
/// it materializes/caches view extents (eval/materialize.h), obtains a
/// rewriting from any registered engine by name (rewriting/engine.h) or a
/// cost-ranked plan over LMSS's rewritings (rewriting/planner.h), executes
/// the winner with the hash-join evaluator (eval/evaluator.h), and also
/// exposes the inverse-rules certain-answer route (eval/certain.h) behind
/// the same request/response API.
///
/// Route semantics (LMSS95 §4 / Duschka-Genesereth):
///   kDirect             q over the base database — ground truth, needs
///                       the base.
///   kCompleteRewriting  the named engine's rewriting union over view
///                       extents. For minicon this is the maximally-
///                       contained rewriting: the certain answers under
///                       sound views. Bucket's union is sound but not
///                       always maximal, so its answers can fall short of
///                       the certain answers. For lmss/ucq it evaluates
///                       equivalent rewritings (exact answers) when one
///                       exists, else an empty union — which is still
///                       sound (the empty set of certain answers).
///                       Partial rewritings (allow_base_atoms) evaluate
///                       over extents merged with the base relations they
///                       read, and require the base to be supplied.
///                       The route evaluates the first disjunct whose
///                       expansion contains q on its own, and the whole
///                       union only when no disjunct's does. Over exact
///                       extents (AnswerRequest::extents) that disjunct r
///                       gives r(extents) = expansion(r)(D) ⊇ q(D), and
///                       every disjunct is contained in q, so the rows are
///                       the union's.
///   kInverseRules       certain answers by inverting the views into a
///                       Skolem datalog program — engine-independent; the
///                       route-equivalence oracle for the union route.
///   kCostBased          ChooseBestPlan over LMSS's equivalent rewritings
///                       plus the direct plan, executing the cheapest
///                       (exact answers).
///
/// When an equivalent rewriting exists and extents are materialized
/// exactly from the base, all four routes return the same relation — the
/// invariant tests/test_answering.cc holds every engine to. Without one,
/// tests/test_certain.cc holds minicon's complete route and inverse rules
/// to an independent chase of the extents (testing/reference.h).

#ifndef AQV_ANSWERING_ANSWERING_H_
#define AQV_ANSWERING_ANSWERING_H_

#include <string>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "eval/certain.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "eval/relation.h"
#include "rewriting/engine.h"
#include "rewriting/planner.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// How an AnswerRequest turns views + data into answers. See the \file
/// comment for the semantics of each route.
enum class AnswerRoute {
  kDirect,
  kCompleteRewriting,
  kInverseRules,
  kCostBased,
};

/// Stable registry names: {"direct", "complete", "inverse-rules", "cost"}.
const std::vector<std::string>& AnswerRouteNames();

/// The registry name of `route`.
std::string_view AnswerRouteName(AnswerRoute route);

/// The route registered under `name` (kNotFound otherwise).
[[nodiscard]] Result<AnswerRoute> AnswerRouteByName(std::string_view name);

/// \brief One answering problem: which query over which views and data,
/// answered how. Pointees (views, databases, and the Catalog behind them)
/// must outlive the call.
struct AnswerRequest {
  /// The query (a union; singleton for the CQ engines and kCostBased).
  UnionQuery query;
  const ViewSet* views = nullptr;
  /// The hidden base database. Required for kDirect and for executing
  /// partial/direct plans under kCostBased; optional otherwise when
  /// `extents` is supplied.
  const Database* base = nullptr;
  /// Pre-materialized view extents (a Session passes the extents it holds
  /// for its current problem). When null, extents are materialized from
  /// `base` on demand. Contract: the extents are exactly
  /// MaterializeViews(*views, D) for some database D (`base` when it is
  /// supplied). The complete route relies on it to evaluate one
  /// equivalent disjunct in place of the whole union; over extents that
  /// merely contain the views' answers (independent sources), that would
  /// drop certain answers.
  const Database* extents = nullptr;
  /// Engine registry name (kCompleteRewriting; EngineNames()).
  std::string engine = "minicon";
  AnswerRoute route = AnswerRoute::kCompleteRewriting;
  /// Engine knobs, including an optional containment oracle.
  EngineOptions options;
  EvalOptions eval;
};

/// Counters of one answering call, stage by stage.
struct AnswerStats {
  /// Materializing extents from the base (zeros when cached extents were
  /// supplied).
  EvalStats materialize;
  /// Executing the chosen plan / rewriting / datalog program. On the
  /// complete route: the one equivalent disjunct evaluated, or the whole
  /// union when none was shown equivalent.
  EvalStats eval;
  /// The rewriting search (kCompleteRewriting: the named engine;
  /// kCostBased: the planner's LMSS search).
  RewriteStats rewrite;
};

/// Outcome of one answering call.
struct AnswerResponse {
  /// The answer relation, typed by the query head.
  Relation result;
  AnswerRoute route = AnswerRoute::kCompleteRewriting;
  /// Engine echo (empty for kDirect / kInverseRules).
  std::string engine;
  /// What was executed for: the engine's whole rewriting union (complete
  /// route, even when one equivalent disjunct was evaluated for it), the
  /// winning plan (cost route), or the query itself (direct). Empty for
  /// kInverseRules, whose program is not a UCQ.
  UnionQuery executed;
  /// True when `executed` reads only view extents.
  bool complete = false;
  /// True when `result` is exactly q(base): the executed plan is an
  /// equivalent rewriting (or the direct query). False means `result` is
  /// the certain-answer under-approximation.
  bool exact = false;
  /// kCostBased: every plan considered, with `chosen` = PlannerResult
  /// best index.
  PlannerResult plans;
  AnswerStats stats;
};

/// The checks AnswerQuery makes before it materializes anything: a
/// caller that materializes extents for a request itself runs them first,
/// so a rejected request costs no materialization.
[[nodiscard]] Status ValidateAnswerRequest(const AnswerRequest& request);

/// \brief Runs the full answering pipeline for one request. See the \file
/// comment; errors follow the usual codes (kInvalidArgument for
/// missing/mismatched inputs, engine and evaluator errors propagate).
[[nodiscard]] Result<AnswerResponse> AnswerQuery(const AnswerRequest& request);

}  // namespace aqv

#endif  // AQV_ANSWERING_ANSWERING_H_
