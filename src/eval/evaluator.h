/// \file
/// Umbrella header of the `eval` module: executing CQs over concrete data.
/// Evaluate runs a hash-join pipeline (greedy atom order: most-bound
/// variables first, then smallest relation) against a Database of
/// columnar Relations; materialize.h computes view extents, certain.h
/// implements the two LAV answering routes (union rewriting evaluation and
/// inverse rules applied by datalog.h, with Skolem filtering). Join probes
/// go through persistent per-relation hash indexes (relation.h IndexOn) —
/// built once per (relation, key-column-set), cached on the relation, and
/// reused across the pipeline, view materialization, union disjuncts, and
/// repeated answer calls. The pipeline carries only live variables: when
/// a step that fans out is the last to read a variable, it keeps one
/// binding row per distinct assignment of the variables still to be
/// read, so existential columns (a view's, or a rewriting's) stop
/// multiplying the rows later steps probe with. Invariants: evaluation never mutates the database,
/// respects EvalOptions::intermediate_row_cap per call
/// (kResourceExhausted past it), and emits deduplicated head tuples in a
/// deterministic order for a fixed input, whether its indexes are cached
/// yet or not.

#ifndef AQV_EVAL_EVALUATOR_H_
#define AQV_EVAL_EVALUATOR_H_

#include <cstdint>

#include "cq/query.h"
#include "eval/database.h"
#include "eval/relation.h"
#include "util/status.h"

namespace aqv {

/// Options for query evaluation.
struct EvalOptions {
  /// Cap on the intermediate binding rows one EvaluateQuery call emits
  /// across its join steps, counted as EvalStats::intermediate_rows counts
  /// them (kResourceExhausted past it). Each call is judged on its own
  /// rows: a union's disjuncts, or a caller's running EvalStats, do not
  /// share the budget.
  uint64_t intermediate_row_cap = 50'000'000;
};

/// Collected per-evaluation statistics (for F5 and diagnosis).
struct EvalStats {
  /// Binding rows emitted by the join steps, each step's counted before
  /// its comparisons and its live-variable deduplication.
  uint64_t intermediate_rows = 0;
  /// Index lookups: one per binding row per joined atom.
  uint64_t probes = 0;
  /// Hash-index builds: misses of a relation's index cache.
  uint64_t index_builds = 0;
  /// Reuses of a relation's cached hash index — the counter that proves
  /// sharing across union disjuncts and repeated calls.
  uint64_t index_hits = 0;
};

/// \brief Evaluates a conjunctive query over a database.
///
/// Join pipeline: body atoms are ordered greedily (most already-bound
/// variables first, then smallest relation); each step hash-joins the
/// current binding set against the atom's relation through the relation's
/// cached hash index keyed by the bound-variable *and* constant argument
/// positions (within-atom repeated variables filter per matched row).
/// Comparisons apply as soon as both sides are bound; `<`/`<=` hold only
/// between plain numeric values, `=`/`!=` compare raw values (so Skolems
/// join by identity).
///
/// Live-variable projection: once the atom order is fixed, each variable
/// has a last step that reads it — its last atom, or the step whose
/// comparisons read it; head variables live to the end. After a step and
/// its comparisons, the variables whose last step it was die, and a step
/// that fanned out (left more rows than it was given) keeps one binding
/// row per distinct assignment of the live ones (a hash set over the
/// flat rows, reused across steps). A step where no variable dies, or
/// that did not fan out, skips this: it cannot have multiplied the rows,
/// and its duplicates fall to the next step that fans out or to the final
/// deduplication. Set semantics make the projection invisible in the
/// answers; it shows in EvalStats (fewer rows and probes) and in memory.
///
/// `options.intermediate_row_cap` bounds the rows this call emits;
/// `stats`, when given, accumulates this call's counters into the
/// caller's totals and does not count against the cap.
///
/// The result relation has the head's predicate and arity, deduplicated
/// (set semantics).
[[nodiscard]] Result<Relation> EvaluateQuery(const Query& q, const Database& db,
                               const EvalOptions& options = {},
                               EvalStats* stats = nullptr);

/// Evaluates a union of CQs and dedups the combined result (a single
/// disjunct's result is returned as EvaluateQuery gives it). Disjuncts
/// share the relations' cached indexes (EvalStats::index_hits counts the
/// reuse). Each disjunct is one EvaluateQuery call, so
/// `options.intermediate_row_cap` bounds each disjunct's rows.
[[nodiscard]] Result<Relation> EvaluateUnion(const UnionQuery& u, const Database& db,
                               const EvalOptions& options = {},
                               EvalStats* stats = nullptr);

}  // namespace aqv

#endif  // AQV_EVAL_EVALUATOR_H_
