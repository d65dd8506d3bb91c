/// \file
/// Shared pipeline stages of the rewriting engines LMSS, Bucket, MiniCon,
/// and the UCQ wrapper: canonical dedup of emitted rewritings, dedup of
/// candidate view atoms, and the build → expand → containment-check
/// verification of a candidate combination. Bucket verifies this way only
/// enrichments and combinations with comparisons; it decides the rest on
/// per-entry unfoldings and builds a rewriting only for those that pass.
/// Every containment call here threads ContainmentOptions, so wiring a
/// ContainmentOracle into those options memoizes these stages; Bucket's
/// decisions on unfoldings search atom spans directly and bypass it.

#ifndef AQV_REWRITING_PIPELINE_H_
#define AQV_REWRITING_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "rewriting/candidates.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Dedup of emitted rewritings: a query is a duplicate when its
/// GlobalCanonicalEncoding (cq/query.h) equals a stored one — a renamed,
/// reordered or duplicate-atom copy of an earlier rewriting.
class QueryDeduper {
 public:
  /// Returns true iff `q` was not seen before (and records it).
  bool Insert(const Query& q) {
    return seen_.insert(GlobalCanonicalEncoding(q)).second;
  }

 private:
  struct WordsHash {
    size_t operator()(const std::vector<uint64_t>& words) const {
      return HashWords(words);
    }
  };
  std::unordered_set<std::vector<uint64_t>, WordsHash> seen_;
};

/// Exact structural dedup of ViewAtomCandidate values (operator==), hashed
/// by their Fingerprint(). Candidates are syntactic objects, not queries,
/// so no containment test is involved.
struct CandidateFingerprint {
  size_t operator()(const ViewAtomCandidate& c) const {
    return c.Fingerprint();
  }
};
using CandidateDeduper =
    std::unordered_set<ViewAtomCandidate, CandidateFingerprint>;

/// How much of the expansion-containment verification a caller needs.
enum class VerifyLevel {
  /// Build the rewriting only (MiniCon's check-free combination: the MCD
  /// theorem makes verification unnecessary for comparison-free inputs).
  kNone,
  /// Expansion satisfiable and contained in q (maximally-contained mode).
  kContained,
  /// Contained and containing: expansion ≡ q (the LMSS equivalent-rewriting
  /// notion).
  kEquivalent,
};

/// Outcome of building a candidate combination and verifying its expansion.
struct ExpansionCheck {
  /// The assembled rewriting; nullopt when the combination is unbuildable
  /// (induced-equality constant clash or unsafe head).
  std::optional<Query> rewriting;
  /// Built, and the requested VerifyLevel held — the caller's accept flag.
  bool passed = false;
  /// Expansion satisfiable (no head-unification constant clash).
  bool satisfiable = false;
  /// expansion ⊑ q held (computed for kContained and kEquivalent).
  bool contained = false;
  /// q ⊑ expansion held too (computed for kEquivalent only).
  bool equivalent = false;
};

/// \brief The verification stage of the engines: BuildRewriting on
/// `picks`, ExpandRewriting over `views`, then the containment checks
/// `level` asks for. Checks short-circuit: an unsatisfiable expansion or a
/// failed ⊑ skips the rest.
[[nodiscard]] Result<ExpansionCheck> BuildAndVerify(
    const Query& q, const ViewSet& views,
    const std::vector<const ViewAtomCandidate*>& picks,
    bool include_comparisons, VerifyLevel level,
    const ContainmentOptions& options);

}  // namespace aqv

#endif  // AQV_REWRITING_PIPELINE_H_
