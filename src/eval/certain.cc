#include "eval/certain.h"

#include <string>

#include "eval/datalog.h"

namespace aqv {

Result<Relation> EvaluateRewritingUnion(const Query& q,
                                        const UnionQuery& rewritings,
                                        const Database& view_extents,
                                        const EvalOptions& options,
                                        EvalStats* stats) {
  if (rewritings.empty()) {
    // No contained rewriting: no certain answer is derivable, which is an
    // empty result of the query's own type, not an error.
    return Relation(q.head().pred, q.head().arity());
  }
  for (const Query& d : rewritings.disjuncts) {
    if (d.head().arity() != q.head().arity()) {
      return Status::InvalidArgument(
          "rewriting disjunct arity " + std::to_string(d.head().arity()) +
          " does not match the query's head arity " +
          std::to_string(q.head().arity()));
    }
  }
  return EvaluateUnion(rewritings, view_extents, options, stats);
}

namespace {

/// Skolem-filtering projection shared by both inverse-rules routes.
Relation DropSkolemRows(const Relation& raw) {
  Relation out(raw.pred(), raw.arity());
  if (raw.arity() == 0) {
    // A nullary answer carries no values, hence no Skolems: it is certain
    // iff derivable at all.
    if (raw.size() == 1) out.Add({});
    return out;
  }
  for (size_t i = 0; i < raw.size(); ++i) {
    bool has_skolem = false;
    for (int c = 0; c < raw.arity(); ++c) {
      if (IsSkolem(raw.at(i, c))) {
        has_skolem = true;
        break;
      }
    }
    if (!has_skolem) out.AppendRowFrom(raw, i);
  }
  out.SortDedup();
  return out;
}

}  // namespace

Result<Relation> CertainAnswersViaInverseRules(const Query& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options,
                                               EvalStats* stats) {
  UnionQuery u;
  u.disjuncts.push_back(q);
  return CertainAnswersViaInverseRules(u, rules, view_extents, options, stats);
}

Result<Relation> CertainAnswersViaInverseRules(const UnionQuery& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options,
                                               EvalStats* stats) {
  if (q.empty()) {
    return Status::InvalidArgument("empty union query");
  }
  SkolemTable skolems;
  AQV_ASSIGN_OR_RETURN(
      Database derived,
      ApplyInverseRules(rules, view_extents, &skolems, options));
  AQV_ASSIGN_OR_RETURN(Relation raw,
                       EvaluateUnion(q, derived, options, stats));
  return DropSkolemRows(raw);
}

}  // namespace aqv
