#include "rewriting/ucq_rewriting.h"

#include "containment/minimize.h"
#include "rewriting/pipeline.h"

namespace aqv {

Result<UcqRewritingResult> FindEquivalentUnionRewriting(
    const UnionQuery& q, const ViewSet& views, const LmssOptions& options) {
  if (q.empty()) {
    return Status::InvalidArgument("empty union query");
  }
  UcqRewritingResult result;
  AQV_ASSIGN_OR_RETURN(result.minimized, MinimizeUnion(q, options.containment));

  result.exists = true;
  for (const Query& disjunct : result.minimized.disjuncts) {
    LmssOptions per = options;
    per.max_rewritings = 1;
    AQV_ASSIGN_OR_RETURN(LmssResult r,
                         FindEquivalentRewritings(disjunct, views, per));
    result.num_candidates += r.num_candidates;
    result.subsets_tested += r.subsets_tested;
    result.candidates_checked += r.candidates_checked;
    if (!r.exists) {
      result.exists = false;
      result.rewritings.disjuncts.clear();
      return result;
    }
    result.rewritings.disjuncts.push_back(std::move(r.rewritings[0]));
  }
  return result;
}

Result<UnionQuery> MaximallyContainedUnionRewriting(
    const UnionQuery& q, const ViewSet& views, const MiniConOptions& options) {
  UnionQuery out;
  QueryDeduper seen;
  for (const Query& disjunct : q.disjuncts) {
    AQV_ASSIGN_OR_RETURN(MiniConResult r,
                         MiniConRewrite(disjunct, views, options));
    for (Query& rw : r.rewritings.disjuncts) {
      if (seen.Insert(rw)) {
        out.disjuncts.push_back(std::move(rw));
      }
    }
  }
  return out;
}

}  // namespace aqv
