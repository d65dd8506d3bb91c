/// \file
/// Scenario-family generator: seeded, parameterized synthesis of realistic
/// LAV data-integration topologies at soak scale. Where scenarios.h
/// packages three hand-tiled problems, GenerateScenario emits arbitrarily
/// many — a mediated schema of binary relations, a chain query over a core
/// of that schema, and tens to hundreds of overlapping source views tiled
/// as chains, stars, and snowflakes, with controllable schema coverage,
/// source redundancy, noise-view fraction, multi-tenant catalogs, and
/// Zipf-skewed hidden base data. Every generated scenario is a plain
/// workload::Scenario, so the whole existing stack (engines, answering
/// routes, frontend replay, the service) consumes it unchanged; the
/// differential soak harness (testing/differential.h, tools/soak.cc)
/// is its primary customer. Invariant: generation is a pure function of
/// the spec — same spec, byte-identical scenario and script.

#ifndef AQV_WORKLOAD_GENERATOR_H_
#define AQV_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>

#include "util/status.h"
#include "workload/scenarios.h"

namespace aqv {

/// Parameters of one generated LAV scenario. Defaults describe a small,
/// fast instance; the soak driver randomizes these within ranges.
struct GeneratedScenarioSpec {
  /// Master seed; the single source of all randomness.
  uint64_t seed = 1;

  // --- mediated schema -----------------------------------------------
  /// Binary relations per tenant ("p0".."p<n-1>", tenant-prefixed when
  /// num_tenants > 1). The paper-scale band is 10-50.
  int num_predicates = 12;
  /// Independent tenant sub-schemas sharing one catalog. The query (and
  /// its views) live in tenant 0; further tenants contribute background
  /// views whose predicates are disjoint from the query's.
  int num_tenants = 1;

  // --- query ----------------------------------------------------------
  /// Chain length of the query q(X0, Xn) :- c0(X0,X1), ..., over the
  /// first min(query_atoms, num_predicates) predicates of tenant 0
  /// (predicates repeat cyclically past that).
  int query_atoms = 3;

  // --- source views ---------------------------------------------------
  /// Total views across all tenants. The soak band is 50-500.
  int num_views = 60;
  /// Tiling mix: each non-mirror view draws its shape from these weights
  /// (normalized; all zero is invalid).
  double chain_weight = 1.0;
  double star_weight = 1.0;
  double snowflake_weight = 1.0;
  /// Body size band of generated views.
  int min_view_atoms = 1;
  int max_view_atoms = 3;
  /// Fraction of each tenant's schema the views may draw atoms from
  /// (query-core predicates order first, so low coverage concentrates
  /// sources on the query).
  double coverage = 1.0;
  /// Probability that a view re-tiles an earlier view's predicate shape
  /// under a fresh name and head — overlapping redundant sources.
  double redundancy = 0.15;
  /// Probability that a view's body avoids the query's predicates
  /// entirely (a distractor source the rewriter must prune).
  double noise_view_fraction = 0.1;
  /// Probability a body variable is exposed in a generated view's head
  /// (at least one is always kept).
  double head_keep_prob = 0.6;
  /// When true (default), the first views emitted are full-identity
  /// mirrors of the query's predicates — guaranteeing an equivalent
  /// rewriting exists, so all four answering routes agree exactly (the
  /// route-equivalence property the differential harness leans on).
  bool guarantee_equivalent = true;

  // --- hidden base data -----------------------------------------------
  /// Tuples per referenced predicate (plus a few planted query-satisfying
  /// chains so answers are non-trivial).
  int facts_per_predicate = 25;
  /// Constants are drawn from [0, domain_size).
  int domain_size = 40;
  /// Zipf skew of the fact distribution (0 = uniform).
  double zipf_skew = 0.8;

  /// Rejects out-of-band parameters (kInvalidArgument with the reason).
  [[nodiscard]] Status Validate() const;
};

/// \brief Generates one scenario from `spec`: registers the mediated
/// schema, synthesizes the query and the tiled view family, and fills the
/// hidden base database. The result passes Scenario round-trips
/// (frontend/replay.h ScriptFromScenario) and, when
/// `spec.guarantee_equivalent`, satisfies route equivalence
/// (direct ≡ complete ≡ inverse-rules ≡ cost) for every engine.
[[nodiscard]] Result<Scenario> GenerateScenario(const GeneratedScenarioSpec& spec);

}  // namespace aqv

#endif  // AQV_WORKLOAD_GENERATOR_H_
