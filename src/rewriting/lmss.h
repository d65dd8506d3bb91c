#ifndef AQV_REWRITING_LMSS_H_
#define AQV_REWRITING_LMSS_H_

#include <cstdint>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "rewriting/candidates.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// Options for the LMSS equivalent-rewriting search.
struct LmssOptions {
  ContainmentOptions containment;
  CandidateOptions candidates;

  /// Maximum number of view atoms in a rewriting. -1 means |body(Q)| after
  /// minimization — the LMSS bound: if any equivalent rewriting exists, one
  /// exists within this size, so the default search is a complete decision
  /// procedure.
  int max_rewriting_atoms = -1;

  /// Stop after this many rewritings (1 = decision/witness mode).
  /// INT32_MAX enumerates everything within the size bound.
  int max_rewritings = 1;

  /// Budget on candidate subsets tested (kResourceExhausted past it).
  uint64_t max_subsets = 2'000'000;

  /// Allow *partial* rewritings (LMSS R3): body atoms may be base-relation
  /// subgoals of q itself in addition to view atoms. Every subgoal of the
  /// minimized query joins the candidate pool as its own cover, so the
  /// search degenerates gracefully: with no usable views the identity
  /// rewriting is found. Rewritings that use no view at all are suppressed
  /// unless `allow_trivial` is also set.
  bool allow_base_atoms = false;

  /// With allow_base_atoms: also emit the trivial all-base rewriting.
  bool allow_trivial = false;
};

/// Outcome of the LMSS search.
struct LmssResult {
  /// True iff an equivalent complete rewriting exists within the bound.
  bool exists = false;
  /// The rewritings found (over view predicates), up to max_rewritings.
  std::vector<Query> rewritings;
  /// Q after minimization (what the search actually ran against).
  Query minimized_query;
  /// Size of the candidate pool (view tuples over the canonical database).
  uint64_t num_candidates = 0;
  /// Number of candidate subsets enumerated by the search (including
  /// prefiltered and unbuildable ones; bounded by max_subsets).
  uint64_t subsets_tested = 0;
  /// Subsets that built a rewriting and reached the expansion-equivalence
  /// check — the search's dominant cost.
  uint64_t candidates_checked = 0;
};

/// \brief The PODS'95 algorithm: decides whether query `q` has an equivalent
/// rewriting using only `views`, and produces witnesses.
///
/// Method (following the paper's two theorems):
///  1. Minimize q (the core).
///  2. Build the candidate pool of view tuples over q's canonical database.
///     Any minimal equivalent rewriting is isomorphic to a subset of this
///     pool whose covered sets span body(q).
///  3. Search covering subsets of size <= |body(q)| (the LMSS length
///     bound), testing Expand(candidate) ≡ q for each. Covers are
///     enumerated exactly once via lowest-uncovered-subgoal branching.
///
/// For comparison-free q and views the procedure is sound and complete.
/// When comparisons are present, the equivalence tests are comparison-aware
/// (sound) but the candidate pool is built from the relational structure
/// only, so a rewriting that would need new comparison literals in its body
/// is not found: with comparisons, `exists == false` is not a proof that no
/// equivalent rewriting exists.
[[nodiscard]] Result<LmssResult> FindEquivalentRewritings(const Query& q,
                                            const ViewSet& views,
                                            const LmssOptions& options = {});

/// Decision-only convenience wrapper (max_rewritings = 1).
[[nodiscard]] Result<bool> ExistsEquivalentRewriting(const Query& q, const ViewSet& views,
                                       const LmssOptions& options = {});

}  // namespace aqv

#endif  // AQV_REWRITING_LMSS_H_
