/// \file
/// Umbrella header of the `rewriting` module's shared currency: candidate
/// view atoms. CanonicalViewTuples computes, for a fixed query Q, every way
/// a view can contribute to a rewriting of Q (LMSS Lemma: a view is usable
/// iff there is a mapping from Q-relevant view subgoals into Q). The LMSS
/// search (lmss.h), Bucket (bucket.h), and MiniCon (minicon.h) all consume
/// ViewAtomCandidate values. Invariant: candidate atoms live in an extended term
/// space — var ids below Q.num_vars() are Q's variables, ids at or above it
/// are candidate-local fresh existentials — and `covered` always lists the
/// Q body atoms the candidate accounts for.

#ifndef AQV_REWRITING_CANDIDATES_H_
#define AQV_REWRITING_CANDIDATES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief One candidate view atom usable in a rewriting of a fixed query Q.
///
/// The shared currency of the LMSS, Bucket, and MiniCon engines. `atom` is a
/// view-head atom whose arguments live in an extended term space:
///   - Term::Var(v) with v <  Q.num_vars()  -> the query variable v;
///   - Term::Var(v) with v >= Q.num_vars()  -> candidate-local fresh
///     variable number v - Q.num_vars() (an existential output of the view
///     nobody in Q constrains);
///   - constants as themselves.
///
/// `covered` lists the Q body atoms this candidate accounts for (for LMSS
/// candidates: the image of the view body; for MiniCon: the MCD's subgoal
/// set; for Bucket: the single bucketed subgoal).
///
/// `induced_equalities` are Q-variable identifications the candidate forces
/// (e.g. unifying q's r(X, Y) with a view's r(B, B) forces X = Y); they are
/// applied to the whole rewriting when candidates are combined.
struct ViewAtomCandidate {
  const View* view = nullptr;
  Atom atom;
  int num_fresh = 0;
  std::vector<int> covered;
  uint64_t covered_mask = 0;
  std::vector<std::pair<VarId, Term>> induced_equalities;

  /// Human-readable rendering against `q`'s variable names.
  std::string ToString(const Query& q) const;

  /// 64-bit dedup fingerprint (view pred + args + equalities + covered set).
  /// Equal candidates always collide; CandidateDeduper (pipeline.h) confirms
  /// colliding entries field-wise via operator==.
  uint64_t Fingerprint() const;

  /// Structural identity: same atom, covered set, and induced-equality set
  /// (order-insensitive). `view` and `num_fresh` are derived from these.
  friend bool operator==(const ViewAtomCandidate& a,
                         const ViewAtomCandidate& b);
};

/// Options for candidate generation.
struct CandidateOptions {
  /// Budget for each homomorphism search during generation.
  uint64_t node_budget = 5'000'000;
  /// Upper bound on generated candidates (kResourceExhausted past it).
  uint64_t max_candidates = 100'000;
  /// Cap on homomorphisms *visited* per view (0 = unlimited). Useful when a
  /// view body admits astronomically many embeddings that all collapse to
  /// the same candidate (the NP-hardness instances). A non-zero cap can
  /// make the pool incomplete in general — the LMSS search stays sound but
  /// may miss rewritings.
  uint64_t max_homs_per_view = 0;
};

/// \brief LMSS/CoreCover candidate pool: one candidate per homomorphism from
/// a view body into Q's body (the view tuples over Q's canonical database).
///
/// Any equivalent complete rewriting of Q is equivalent to one assembled
/// from this pool with at most |body(Q)| atoms (LMSS bounded-rewriting
/// theorem + the canonical-database argument), which is what makes the LMSS
/// search in lmss.h complete. Candidates never have fresh variables or
/// induced equalities (homomorphism images are total on head variables).
///
/// Precondition: |body(q)| <= 64 (covered sets are bitmasks).
[[nodiscard]] Result<std::vector<ViewAtomCandidate>> CanonicalViewTuples(
    const Query& q, const ViewSet& views, const CandidateOptions& options = {});

/// \brief Builds the rewriting query for a chosen set of candidates: head =
/// Q's head, body = the candidate atoms (fresh variables renumbered),
/// induced equalities applied, Q's comparisons carried over when
/// `include_comparisons`.
///
/// Returns nullopt when the combination is unsatisfiable (equality constant
/// clash) or unsafe (a head variable of Q ends up unbound), i.e. not a
/// usable rewriting.
std::optional<Query> BuildRewriting(
    const Query& q, const std::vector<const ViewAtomCandidate*>& picks,
    bool include_comparisons);

class TwoSpaceUnifier;

/// \brief Materializes a ViewAtomCandidate from a completed query/view
/// unification (Bucket entries, MiniCon MCDs).
///
/// The candidate's atom takes, per view-head position: the pinned constant
/// of its class, else the smallest query variable in its class, else a
/// candidate-local fresh variable (one per class). Classes identifying
/// several query variables (or a query variable with a constant) become
/// induced equalities.
///
/// Returns nullopt when `require_distinguished_exposed` is set and some
/// distinguished variable of `q` occurring in a covered subgoal is unified
/// only with existential view variables — such a candidate can never
/// recover the output value (the Bucket/MiniCon head-variable condition).
std::optional<ViewAtomCandidate> MakeCandidateFromUnifier(
    const Query& q, const View& view, const TwoSpaceUnifier& unifier,
    std::vector<int> covered, bool require_distinguished_exposed);

}  // namespace aqv

#endif  // AQV_REWRITING_CANDIDATES_H_
