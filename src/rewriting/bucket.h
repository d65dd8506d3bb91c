#ifndef AQV_REWRITING_BUCKET_H_
#define AQV_REWRITING_BUCKET_H_

#include <cstdint>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "rewriting/candidates.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// Options for the Bucket algorithm.
struct BucketOptions {
  ContainmentOptions containment;

  /// Cap on bucket combinations (the Cartesian product is the algorithm's
  /// exponential step). When the product of the bucket sizes exceeds it,
  /// BucketRewrite fails with ResourceExhausted after unfolding the
  /// entries and before enumerating any combination.
  uint64_t max_combinations = 5'000'000;
};

/// Outcome of the Bucket algorithm.
struct BucketResult {
  /// buckets[i] holds the candidate view atoms for q's i-th subgoal.
  std::vector<std::vector<ViewAtomCandidate>> buckets;
  /// Conjunctive rewritings contained in q.
  UnionQuery rewritings;
  /// Cartesian-product combinations enumerated.
  uint64_t combinations_enumerated = 0;
  /// Combinations that produced a well-formed rewriting and reached the
  /// containment check.
  uint64_t candidates_checked = 0;
};

/// \brief The Bucket algorithm (Information Manifold lineage): for each
/// query subgoal, collect view atoms whose definition can cover it
/// (unifying the subgoal with a view subgoal, distinguished query variables
/// landing on exposed view positions); then test every one-per-bucket
/// combination with an expansion containment check, keeping those contained
/// in q. Each entry is unfolded once; comparison-free combinations are
/// decided on those unfoldings, and only passing ones build a rewriting.
///
/// When a combination fails the direct check, the classic Bucket
/// validation may still succeed after *adding join predicates*: up to 16
/// homomorphisms from the combination's expansion into q each identify
/// fresh candidate variables with q terms, and each such enrichment is
/// checked in turn. The probe is skipped when one entry's unfolding alone
/// cannot map into q.
///
/// Every kept rewriting is contained in q, but the union is not always the
/// maximally-contained rewriting, even without comparisons: on some
/// generated problems it returns fewer answers than the certain answers
/// (MiniCon's union and inverse rules return all of them). The cause is
/// not established; the cap of 16 enrichments per combination is one
/// candidate. Comparisons on q are carried into each candidate and
/// handled by the comparison-aware containment test — sound, with the
/// linearization-cap caveat.
[[nodiscard]] Result<BucketResult> BucketRewrite(const Query& q, const ViewSet& views,
                                   const BucketOptions& options = {});

}  // namespace aqv

#endif  // AQV_REWRITING_BUCKET_H_
