/// \file
/// Reference implementations the tests hold the answering pipeline to.
/// Each is written from a definition, not from the production code it
/// checks:
///
///   - NestedLoopEvaluate: a CQ's answers by backtracking over its body
///     atoms in written order (the definition of q(D)). It shares no code
///     with eval/evaluator.cc.
///   - ChaseCertainAnswers: certain answers under sound views by a naive
///     chase. Every extent row of every view becomes the view's body
///     atoms, with a fresh labelled null for each existential variable of
///     each row; q is evaluated over those facts with NestedLoopEvaluate,
///     and every answer that carries a null is dropped. For comparison-free
///     queries and single-rule comparison-free views this is the
///     certain-answer semantics (Duschka-Genesereth): the chased facts are
///     a universal model of the extents. It shares no code with
///     eval/datalog.cc, rewriting/inverse_rules.cc or eval/evaluator.cc.
///   - BruteForceCertainAnswers: certain answers by intersecting q over
///     every possible world of a finite universe. Exponential; it
///     cross-checks the chase on tiny instances.
///   - FreezeQuery: the canonical database of Chandra & Merlin, against
///     which test_properties checks the containment core
///     (Q1 ⊑ Q2 iff head(Q1) frozen ∈ Q2(canonical_db(Q1))).

#ifndef AQV_TESTING_REFERENCE_H_
#define AQV_TESTING_REFERENCE_H_

#include <set>
#include <vector>

#include "cq/catalog.h"
#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "eval/relation.h"
#include "eval/value.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief q(db) by naive nested loops: every body atom in written order
/// matches every row of its relation, binding variables on first use;
/// comparisons are checked once every variable is bound, with the
/// semantics of eval/value.h (`<` and `<=` hold only between plain numeric
/// values, `=` and `!=` compare raw values); the head is projected into a
/// set, so rows come out sorted and deduplicated.
std::set<std::vector<Value>> NestedLoopEvaluate(const Query& q,
                                                const Database& db);

/// \brief The certain answers of `q` given `view_extents`, by the naive
/// chase described in the \file comment. The result is typed by q's head.
/// kUnimplemented when q or a view carries a comparison or a view has
/// more than one rule (the chased facts are then no universal model);
/// kInvalidArgument when an extent row contradicts its view's head (a
/// head constant or repeated head variable the row does not match).
[[nodiscard]] Result<Relation> ChaseCertainAnswers(
    const UnionQuery& q, const ViewSet& views, const Database& view_extents);

/// Options for the brute-force possible-world enumerator.
struct WorldEnumOptions {
  /// Fresh constants added to the universe beyond the extents' active
  /// domain (unknown values may be outside it).
  int extra_constants = 1;
  /// Cap on candidate tuples in the world lattice (2^tuples worlds).
  int max_world_tuples = 22;
  EvalOptions eval;
};

/// \brief Certain answers by exhaustive enumeration: intersect q(D) over
/// every database D, built from base-predicate tuples over a finite
/// universe, that is *consistent* with the extents (every view's result
/// over D contains its extent — sound views).
///
/// The universe is the extents' active domain plus `extra_constants` fresh
/// values; this finite-universe semantics coincides with true open-world
/// certain answers whenever enough fresh values are provided for the views'
/// existential variables (the tiny cross-check instances in the tests).
/// Exponential; guarded by max_world_tuples.
[[nodiscard]] Result<Relation> BruteForceCertainAnswers(
    const Query& q, const ViewSet& views, const Database& view_extents,
    const WorldEnumOptions& options = {});

/// \brief Result of freezing a query: the query with every variable
/// replaced by a distinct fresh constant — the classic canonical database
/// of Chandra & Merlin, reified as a (variable-free) query.
struct FrozenQuery {
  /// Variable-free copy of the source query.
  Query frozen;
  /// var_to_const[v] is the constant that replaced source variable v.
  std::vector<ConstId> var_to_const;
};

/// Freezes `q` by interning one fresh constant per variable in `catalog`.
FrozenQuery FreezeQuery(const Query& q, Catalog* catalog);

}  // namespace aqv

#endif  // AQV_TESTING_REFERENCE_H_
