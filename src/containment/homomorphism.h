#ifndef AQV_CONTAINMENT_HOMOMORPHISM_H_
#define AQV_CONTAINMENT_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>

#include "cq/query.h"
#include "cq/substitution.h"
#include "util/status.h"

namespace aqv {

/// Options for containment-mapping (homomorphism) search.
struct HomSearchOptions {
  /// Backtracking step budget; exceeded -> kResourceExhausted. Containment
  /// of CQs is NP-complete, so an explicit budget keeps every caller total.
  uint64_t node_budget = 5'000'000;

  /// Require head(from) to map onto head(to) argument-wise (the containment
  /// -mapping condition). Disable for body-only homomorphisms, e.g. when
  /// generating candidate view tuples over the canonical database.
  bool map_head = true;
};

/// \brief Searches for a containment mapping h : vars(from) -> terms(to)
/// with h(head(from)) = head(to) (if map_head) and h(a) ∈ body(to) for every
/// a ∈ body(from). By Chandra-Merlin, such an h exists iff to ⊑ from for
/// comparison-free CQs.
///
/// If found and `out` is non-null, *out receives the mapping (sized
/// from.num_vars()). Comparisons are ignored here; comparison-aware
/// containment lives in comparison_containment.h.
[[nodiscard]] Result<bool> FindHomomorphism(const Query& from, const Query& to,
                              const HomSearchOptions& options = {},
                              Substitution* out = nullptr);

/// Invokes `cb` for every containment mapping from `from` into `to` (in an
/// unspecified but deterministic order). `cb` returns true to continue
/// enumerating, false to stop early. Returns the number of mappings visited.
[[nodiscard]] Result<int64_t> ForEachHomomorphism(
    const Query& from, const Query& to, const HomSearchOptions& options,
    const std::function<bool(const Substitution&)>& cb);

}  // namespace aqv

#endif  // AQV_CONTAINMENT_HOMOMORPHISM_H_
