#ifndef AQV_EVAL_CERTAIN_H_
#define AQV_EVAL_CERTAIN_H_

#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "rewriting/inverse_rules.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Evaluates a (maximally-contained) union rewriting over view
/// extents. Under sound-view (open-world) semantics, the result is the set
/// of certain answers when the union is maximally contained — the standard
/// LAV answering pipeline fed by Bucket/MiniCon output.
///
/// `q` is the original query the union rewrites: it types the result
/// (head predicate and arity), so an *empty* union — no contained
/// rewriting, hence no derivable certain answers — evaluates to a
/// correctly-typed empty relation instead of an error. Non-empty unions
/// must match q's head arity (kInvalidArgument otherwise).
[[nodiscard]] Result<Relation> EvaluateRewritingUnion(const Query& q,
                                        const UnionQuery& rewritings,
                                        const Database& view_extents,
                                        const EvalOptions& options = {},
                                        EvalStats* stats = nullptr);

/// \brief Certain answers via the inverse-rules route: reconstruct base
/// facts with Skolem placeholders, evaluate `q` on them, drop every answer
/// carrying a Skolem value.
[[nodiscard]] Result<Relation> CertainAnswersViaInverseRules(const Query& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options = {},
                                               EvalStats* stats = nullptr);

/// Union-query variant (Duschka-Genesereth generalizes disjunct-wise: the
/// certain answers of a UCQ over sound views are its answers over the
/// Skolem-reconstructed base facts, minus Skolem-carrying rows).
[[nodiscard]] Result<Relation> CertainAnswersViaInverseRules(const UnionQuery& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options = {},
                                               EvalStats* stats = nullptr);

}  // namespace aqv

#endif  // AQV_EVAL_CERTAIN_H_
