#ifndef AQV_REWRITING_MINICON_H_
#define AQV_REWRITING_MINICON_H_

#include <cstdint>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "rewriting/candidates.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// Options for the MiniCon algorithm.
struct MiniConOptions {
  ContainmentOptions containment;

  /// Cap on MCD combinations enumerated.
  uint64_t max_combinations = 5'000'000;
};

/// Outcome of the MiniCon algorithm.
struct MiniConResult {
  /// All MiniCon descriptions formed (deduplicated).
  std::vector<ViewAtomCandidate> mcds;
  /// The union of combined rewritings (maximally contained, comparison-free
  /// case).
  UnionQuery rewritings;
  /// Exact-cover combinations enumerated.
  uint64_t combinations_enumerated = 0;
  /// Complete covers that reached the expansion-containment check (stays 0
  /// in the check-free mode the MiniCon theorem licenses).
  uint64_t candidates_checked = 0;
};

/// \brief The MiniCon algorithm (Pottinger-Halevy): forms MiniCon
/// descriptions (MCDs) — view specializations paired with the minimal set
/// of query subgoals they must cover — and combines MCDs with pairwise
/// disjoint coverage into rewritings.
///
/// The MCD property enforced during formation:
///  (C1) a distinguished variable of q unified into the view must land on
///       an exposed position (view head variable or constant);
///  (C2) if a query variable is unified only with existential view
///       variables, every query subgoal containing it must be covered by
///       this same MCD (its value is irrecoverable across views).
/// Closure is search: covering a forced subgoal branches over the view
/// subgoals it can map to.
///
/// By the MiniCon correctness theorem, the union of all disjoint-cover
/// combinations equals the maximally-contained rewriting without any
/// per-candidate containment test (the algorithm's headline win over
/// Bucket). The theorem does not cover comparisons: when q carries any,
/// each combined rewriting is verified with an expansion containment
/// check.
[[nodiscard]] Result<MiniConResult> MiniConRewrite(const Query& q, const ViewSet& views,
                                     const MiniConOptions& options = {});

}  // namespace aqv

#endif  // AQV_REWRITING_MINICON_H_
