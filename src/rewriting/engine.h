/// \file
/// The unified rewriting-engine layer: every strategy in the repository —
/// the LMSS decision procedure, Bucket, MiniCon, and the UCQ wrapper —
/// implements one request/response interface, so scenarios, benches, and
/// tools can drive any of them by name and compare them on identical
/// workloads. A request optionally carries a ContainmentOracle; the engine
/// threads it through ContainmentOptions so minimization, candidate
/// verification and subsumption pruning share one memoized containment
/// core (Bucket's comparison-free combination checks search atom spans
/// directly and bypass it), and the response surfaces the oracle's
/// hit/miss/budget delta alongside the engine's own search counters.

#ifndef AQV_REWRITING_ENGINE_H_
#define AQV_REWRITING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "containment/containment.h"
#include "containment/oracle.h"
#include "cq/query.h"
#include "rewriting/bucket.h"
#include "rewriting/lmss.h"
#include "rewriting/minicon.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// Options shared by every engine plus the per-strategy knobs. The engine
/// overwrites each strategy struct's ContainmentOptions with `containment`
/// (oracle wired in), so callers set budgets in exactly one place.
struct EngineOptions {
  /// Shared memoized containment cache; null runs uncached. Not owned.
  ContainmentOracle* oracle = nullptr;
  /// Containment budgets applied to every decision the engine makes.
  ContainmentOptions containment;
  /// LMSS knobs (also drive the UCQ wrapper's per-disjunct searches).
  LmssOptions lmss;
  BucketOptions bucket;
  MiniConOptions minicon;
};

/// One rewriting problem: a query (a union; singleton for the CQ engines),
/// the available views, and the options above.
struct RewriteRequest {
  UnionQuery query;
  const ViewSet* views = nullptr;
  EngineOptions options;
};

/// Search counters plus the oracle's delta for one request.
struct RewriteStats {
  /// Candidate pool size (LMSS view tuples, bucket entries, MCDs).
  uint64_t num_candidates = 0;
  /// Combinations / covering subsets enumerated by the search.
  uint64_t combinations = 0;
  /// Combinations that reached the expansion-containment check.
  uint64_t checks = 0;
  /// This request's share of the oracle's counters (zeros when no oracle).
  OracleStats oracle;
};

/// Uniform outcome of every engine.
struct RewriteResponse {
  /// The engine that produced this response.
  std::string engine;
  /// LMSS / UCQ: an equivalent rewriting exists. Always false for Bucket
  /// and MiniCon, whose disjuncts are only contained in the query.
  bool equivalent_exists = false;
  /// The rewriting union: contained disjuncts (Bucket, MiniCon; MiniCon's
  /// union is maximal, Bucket's not always) or equivalent witnesses (LMSS,
  /// UCQ; valid when equivalent_exists).
  UnionQuery rewritings;
  /// The minimized input the search ran against (engines that minimize).
  UnionQuery minimized;
  RewriteStats stats;
};

/// \brief Interface every rewriting strategy implements. Implementations
/// are stateless; one engine instance can serve many requests.
class RewritingEngine {
 public:
  virtual ~RewritingEngine() = default;

  /// Registry name ("lmss", "bucket", "minicon", "ucq").
  virtual std::string_view name() const = 0;

  /// Runs the strategy. CQ engines (lmss/bucket/minicon) require a
  /// singleton request.query; the ucq engine accepts any union.
  [[nodiscard]] virtual Result<RewriteResponse> Rewrite(const RewriteRequest& request)
      const = 0;
};

/// Names of all registered engines, in a stable order.
const std::vector<std::string>& EngineNames();

/// Constructs the engine registered under `name` (kNotFound otherwise).
[[nodiscard]] Result<std::unique_ptr<RewritingEngine>> MakeEngine(std::string_view name);

/// One-shot convenience: MakeEngine(name)->Rewrite(request).
[[nodiscard]] Result<RewriteResponse> RunEngine(std::string_view name,
                                  const RewriteRequest& request);

}  // namespace aqv

#endif  // AQV_REWRITING_ENGINE_H_
