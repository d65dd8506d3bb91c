#ifndef AQV_CONTAINMENT_HOMOMORPHISM_H_
#define AQV_CONTAINMENT_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>

#include "cq/atom.h"
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

/// \brief A comparison-free query read in place from caller-owned atoms:
/// `head`, the `body_size` body atoms starting at `body`, and variables
/// 0..num_vars-1. Lets a caller pose a query it assembles in reused
/// buffers (Bucket's per-combination expansions) without building a Query.
/// The atoms must stay alive and unchanged for the duration of the search.
struct AtomSpan {
  const Atom* head = nullptr;
  const Atom* body = nullptr;
  int body_size = 0;
  int num_vars = 0;

  /// The span of a built query's head and body.
  static AtomSpan Of(const Query& q) {
    return {&q.head(), q.body().data(), static_cast<int>(q.body().size()),
            q.num_vars()};
  }
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

/// The same search over atom spans; the Query overloads wrap this one, so
/// both visit the same nodes in the same order.
[[nodiscard]] Result<bool> FindHomomorphism(const AtomSpan& from,
                                            const AtomSpan& to,
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
