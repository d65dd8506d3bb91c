/// \file
/// Umbrella header of the `eval` module: executing CQs over concrete data.
/// Evaluate runs a hash-join pipeline (greedy atom order: most-bound
/// variables first, then smallest relation) against a Database of
/// columnar Relations; materialize.h computes view extents, certain.h
/// implements the two LAV answering routes (union rewriting evaluation and
/// inverse rules + datalog.h fixpoint with Skolem filtering). Join probes
/// go through persistent per-relation hash indexes (relation.h IndexOn) —
/// built once per (relation, key-column-set), cached on the relation, and
/// reused across the pipeline, view materialization, fixpoint rounds, and
/// repeated answer calls. Invariants: evaluation never mutates the
/// database, respects EvalOptions::intermediate_row_cap
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
  /// Cap on the number of intermediate binding rows produced across the join
  /// pipeline (kResourceExhausted past it).
  uint64_t intermediate_row_cap = 50'000'000;
};

/// Collected per-evaluation statistics (for F5 and diagnosis).
struct EvalStats {
  uint64_t intermediate_rows = 0;
  /// Index lookups: one per binding row per joined atom.
  uint64_t probes = 0;
  /// Hash-index builds: misses of a relation's index cache.
  uint64_t index_builds = 0;
  /// Reuses of a relation's cached hash index — the counter that proves
  /// sharing across union disjuncts, fixpoint rounds, and repeated calls.
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
/// The result relation has the head's predicate and arity, deduplicated
/// (set semantics).
[[nodiscard]] Result<Relation> EvaluateQuery(const Query& q, const Database& db,
                               const EvalOptions& options = {},
                               EvalStats* stats = nullptr);

/// Evaluates a union of CQs and dedups the combined result. Disjuncts
/// share the relations' cached indexes (EvalStats::index_hits counts the
/// reuse).
[[nodiscard]] Result<Relation> EvaluateUnion(const UnionQuery& u, const Database& db,
                               const EvalOptions& options = {},
                               EvalStats* stats = nullptr);

}  // namespace aqv

#endif  // AQV_EVAL_EVALUATOR_H_
