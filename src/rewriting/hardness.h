#ifndef AQV_REWRITING_HARDNESS_H_
#define AQV_REWRITING_HARDNESS_H_

#include <memory>
#include <vector>

#include "cq/catalog.h"
#include "cq/query.h"
#include "util/rng.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// An undirected graph (for the 3-colorability leg of the reduction chain).
struct Graph {
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;
};

/// A 3-CNF clause: three non-zero literals, DIMACS sign convention
/// (variable indices start at 1; negative means negated).
struct Clause3 {
  int lits[3] = {0, 0, 0};
};

/// A 3-SAT formula.
struct Formula3Sat {
  int num_vars = 0;
  std::vector<Clause3> clauses;
};

/// \brief The NP-hardness witness machinery for the LMSS rewriting-existence
/// problem (paper result R2), as an executable reduction chain:
///
///   3-SAT  -> graph 3-colorability  -> equivalent-rewriting existence.
///
/// The last leg: for a graph G, build boolean query q() whose body is the
/// complete directed triangle K3 and a single boolean view v() whose body is
/// K3 plus G's edges (both directions). An equivalent rewriting of q using
/// {v} exists iff there is a homomorphism K3 ∪ G -> K3, i.e. iff G is
/// 3-colorable. T2 (bench_t2_np_reduction) measures the correspondence.
///
/// This is a polynomial reduction witnessing NP-hardness (PAPER.md result
/// 2) in our own machinery; it is not the paper's own proof.
Graph ThreeSatToThreeColoring(const Formula3Sat& formula);

/// A 3-SAT → rewriting-existence instance: the query, the single view, and
/// the catalog that owns their symbols.
struct HardnessInstance {
  std::unique_ptr<Catalog> catalog;
  Query query;
  ViewSet views;
};

/// Builds the rewriting-existence instance for graph `g`.
[[nodiscard]] Result<HardnessInstance> GraphToRewritingInstance(const Graph& g);

/// Convenience: full chain 3-SAT -> rewriting instance.
[[nodiscard]] Result<HardnessInstance> FormulaToRewritingInstance(const Formula3Sat& f);

/// Exhaustive 3-SAT decision (tests/benches ground truth; num_vars <= 24).
[[nodiscard]] Result<bool> BruteForceSat(const Formula3Sat& formula);

/// Exhaustive 3-colorability decision (num_nodes <= 20).
[[nodiscard]] Result<bool> BruteForceThreeColorable(const Graph& g);

/// Uniform random 3-CNF with `num_clauses` clauses over `num_vars` vars
/// (distinct variables within each clause).
Formula3Sat RandomFormula(Rng* rng, int num_vars, int num_clauses);

}  // namespace aqv

#endif  // AQV_REWRITING_HARDNESS_H_
