#include "rewriting/pipeline.h"

#include <utility>

#include "views/expansion.h"

namespace aqv {

Result<ExpansionCheck> BuildAndVerify(
    const Query& q, const ViewSet& views,
    const std::vector<const ViewAtomCandidate*>& picks,
    bool include_comparisons, VerifyLevel level,
    const ContainmentOptions& options) {
  ExpansionCheck check;
  check.rewriting = BuildRewriting(q, picks, include_comparisons);
  if (!check.rewriting.has_value()) return check;
  if (level == VerifyLevel::kNone) {
    check.passed = true;
    return check;
  }
  AQV_ASSIGN_OR_RETURN(ExpansionResult exp,
                       ExpandRewriting(*check.rewriting, views));
  check.satisfiable = exp.satisfiable;
  if (!check.satisfiable) return check;
  // Expansion ⊑ q is the discriminating direction; q ⊑ expansion usually
  // holds by construction but is what kEquivalent must confirm.
  AQV_ASSIGN_OR_RETURN(check.contained, IsContainedIn(exp.query, q, options));
  if (!check.contained) return check;
  if (level == VerifyLevel::kContained) {
    check.passed = true;
    return check;
  }
  AQV_ASSIGN_OR_RETURN(check.equivalent, IsContainedIn(q, exp.query, options));
  check.passed = check.equivalent;
  return check;
}

}  // namespace aqv
