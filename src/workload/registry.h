/// \file
/// Scenario registry and the workload→engine hook: every packaged LAV
/// scenario (scenarios.h) is constructible by name, and any scenario can
/// drive any rewriting strategy by engine name through the unified
/// RewritingEngine layer (rewriting/engine.h). Benches, tests, and tools
/// iterate ScenarioNames() × EngineNames() instead of hard-wiring
/// (scenario, algorithm) pairs.

#ifndef AQV_WORKLOAD_REGISTRY_H_
#define AQV_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "answering/answering.h"
#include "eval/database.h"
#include "rewriting/engine.h"
#include "util/status.h"
#include "workload/scenarios.h"

namespace aqv {

/// Names of all registered scenarios, in a stable order:
/// {"travel", "warehouse", "bibliography"}.
const std::vector<std::string>& ScenarioNames();

/// Builds the scenario registered under `name` (kNotFound otherwise).
/// Additionally accepts "generated" — a default-spec instance of the
/// scenario-family generator (workload/generator.h) — which is kept out
/// of ScenarioNames() so existing registry-iterating grids are unchanged.
[[nodiscard]] Result<Scenario> MakeScenarioByName(std::string_view name, uint64_t seed,
                                    int db_size);

/// \brief Runs one engine on one scenario: wraps the scenario's query and
/// views into a RewriteRequest (singleton union; the ucq engine accepts it
/// too) and dispatches through the engine registry. `options.oracle`, when
/// set, is shared across calls — the cross-engine cache reuse the bench
/// measures.
[[nodiscard]] Result<RewriteResponse> RewriteScenarioWithEngine(const Scenario& scenario,
                                                  std::string_view engine_name,
                                                  const EngineOptions& options);

/// \brief A synthesized mixed-scenario request batch: the workload-side
/// input of the service layer (src/service/ converts it to ServiceRequests
/// via ToServiceRequests and feeds RewriteService::RewriteBatch).
///
/// `engines`, `requests`, and `labels` are parallel arrays — one entry per
/// batch item. Every request's `views` pointer aims into an element of
/// `scenarios`, which therefore owns the batch's lifetime: keep the whole
/// struct alive (it is move-only, never reallocating the scenarios) until
/// every response has been collected.
struct ScenarioRequestBatch {
  std::vector<std::unique_ptr<Scenario>> scenarios;
  std::vector<std::string> engines;
  std::vector<RewriteRequest> requests;
  /// "scenario/engine/rep:N" — for logs, bench counters, and assertions.
  std::vector<std::string> labels;

  size_t size() const { return requests.size(); }
};

/// \brief Synthesizes the cross product scenario_names × engine_names ×
/// repeats into one mixed batch, the workload shape of a rewriting service
/// fronting one view catalog for many concurrent queries.
///
/// Each (scenario, repeat) pair gets its own Scenario instance built with
/// seed `seed + repeat` — repeats are fresh problem instances over the
/// same schema shape, not verbatim duplicates — and all engines of one
/// (scenario, repeat) share that instance. Requests carry default
/// EngineOptions (no oracle), and the service runs them as they are.
/// Empty name lists or repeats < 1 yield kInvalidArgument; unknown names
/// propagate kNotFound from the underlying registries.
[[nodiscard]] Result<ScenarioRequestBatch> MakeBatchFromScenarios(
    const std::vector<std::string>& scenario_names,
    const std::vector<std::string>& engine_names, int repeats, uint64_t seed,
    int db_size);

/// \brief A synthesized answering batch: full AnswerRequests — query,
/// views, base instance, *and pre-materialized extents* — over owned
/// Scenario objects, the workload-side input of the service layer's
/// answering batches (RewriteService::AnswerBatch consumes `requests`
/// directly).
///
/// `requests` and `labels` are parallel arrays. Each scenario's extents
/// are materialized once and shared by every request over that scenario
/// (the batch-level extent cache), so answering jobs measure planning +
/// execution, not repeated view evaluation. Keep the whole struct alive
/// (move-only, never reallocating scenarios/extents) until every response
/// has been collected.
struct AnswerScenarioBatch {
  std::vector<std::unique_ptr<Scenario>> scenarios;
  /// extents[i] belongs to scenarios[i].
  std::vector<std::unique_ptr<Database>> extents;
  std::vector<AnswerRequest> requests;
  /// "scenario/route/engine/rep:N" (engine omitted for engine-independent
  /// routes) — for logs, bench counters, and assertions.
  std::vector<std::string> labels;

  size_t size() const { return requests.size(); }
};

/// \brief Synthesizes the grid scenario_names × routes × engine_names ×
/// repeats into one answering batch — the workload shape of a mediator
/// answering many concurrent queries over one view catalog.
///
/// Engine-independent routes (kDirect, kInverseRules) contribute one
/// request per (scenario, repeat) instead of one per engine. Each
/// (scenario, repeat) pair gets its own Scenario built with seed
/// `seed + repeat` plus its own materialized extents. Requests carry
/// default options (no oracle), and the service runs them as they are.
/// Empty name/route lists or repeats < 1 yield kInvalidArgument; unknown
/// names propagate kNotFound.
[[nodiscard]] Result<AnswerScenarioBatch> MakeAnswerBatchFromScenarios(
    const std::vector<std::string>& scenario_names,
    const std::vector<std::string>& engine_names,
    const std::vector<AnswerRoute>& routes, int repeats, uint64_t seed,
    int db_size);

}  // namespace aqv

#endif  // AQV_WORKLOAD_REGISTRY_H_
