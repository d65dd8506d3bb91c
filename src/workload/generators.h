/// \file
/// Umbrella header of the `workload` module: parameterized generators for
/// the query/view families the T-series benches and the property tests
/// draw from — chain and star queries with their views, and random
/// CQs with configurable DistinguishedPolicy head exposure. datagen.h adds random
/// database instances and scenarios.h packages full LAV problems (schema +
/// query + views + hidden base data). Invariants: every generator is a pure
/// function of its spec and the caller's Rng — same seed, same workload —
/// and generated artifacts always pass their own Validate().

#ifndef AQV_WORKLOAD_GENERATORS_H_
#define AQV_WORKLOAD_GENERATORS_H_

#include <string>
#include <string_view>

#include "cq/catalog.h"
#include "cq/query.h"
#include "util/rng.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// Which variables a generated view exposes in its head.
enum class DistinguishedPolicy {
  kEnds,    ///< first and last chain variable (classic chain-view setup)
  kAll,     ///< every variable (fully exposed views)
  kRandom,  ///< each variable kept with `random_keep_prob`
};

// ---------------------------------------------------------------------------
// Chain workloads (the MiniCon experimental grid).
// ---------------------------------------------------------------------------

/// Parameters of a chain query q(X0, Xn) :- r1(X0,X1), ..., rn(Xn-1,Xn).
struct ChainQuerySpec {
  int length = 4;
  /// Distinct predicates r1..rn (true) or a single self-join predicate.
  bool distinct_predicates = true;
  std::string pred_prefix = "r";
  std::string head_name = "q";
};

/// Builds the chain query; predicates are registered in `catalog`.
[[nodiscard]] Result<Query> MakeChainQuery(Catalog* catalog, const ChainQuerySpec& spec);

/// Parameters for a random family of sub-chain views over the same
/// predicates as a ChainQuerySpec.
struct ChainViewSpec {
  ChainQuerySpec chain;  ///< the underlying chain (must match the query's)
  int num_views = 10;
  int min_length = 1;
  int max_length = 3;
  DistinguishedPolicy policy = DistinguishedPolicy::kEnds;
  double random_keep_prob = 0.5;
  std::string view_prefix = "v";
};

/// Builds `num_views` random sub-chain views v_i(...) :- r_s..r_{s+l-1}.
[[nodiscard]] Result<ViewSet> MakeChainViews(Catalog* catalog, Rng* rng,
                               const ChainViewSpec& spec);

// ---------------------------------------------------------------------------
// Star workloads.
// ---------------------------------------------------------------------------

/// q(X1..Xk) :- r1(X0,X1), ..., rk(X0,Xk): a center joined to k rays.
struct StarQuerySpec {
  int rays = 4;
  bool distinct_predicates = true;
  bool distinguish_center = false;
  std::string pred_prefix = "s";
  std::string head_name = "q";
};

[[nodiscard]] Result<Query> MakeStarQuery(Catalog* catalog, const StarQuerySpec& spec);

/// Views covering random subsets of rays.
struct StarViewSpec {
  StarQuerySpec star;
  int num_views = 10;
  int min_rays = 1;
  int max_rays = 3;
  DistinguishedPolicy policy = DistinguishedPolicy::kAll;
  double random_keep_prob = 0.5;
  std::string view_prefix = "v";
};

[[nodiscard]] Result<ViewSet> MakeStarViews(Catalog* catalog, Rng* rng,
                              const StarViewSpec& spec);

// ---------------------------------------------------------------------------
// Random CQs (containment property sweeps).
// ---------------------------------------------------------------------------

struct RandomQuerySpec {
  int num_subgoals = 4;
  int num_predicates = 3;
  int pred_arity = 2;
  int num_vars = 4;
  int head_arity = 2;
  double constant_prob = 0.0;
  int constant_pool = 3;
  std::string pred_prefix = "p";
  std::string head_name = "q";
};

/// A random CQ: subgoals over random predicates with uniformly drawn
/// variable (or constant) arguments; the head projects `head_arity` randomly
/// chosen body variables. Always safe by construction.
[[nodiscard]] Result<Query> MakeRandomQuery(Catalog* catalog, Rng* rng,
                              const RandomQuerySpec& spec);

/// `num_views` random views over the same predicate space.
[[nodiscard]] Result<ViewSet> MakeRandomViews(Catalog* catalog, Rng* rng,
                                const RandomQuerySpec& base, int num_views,
                                std::string_view view_prefix = "v");

}  // namespace aqv

#endif  // AQV_WORKLOAD_GENERATORS_H_
