/// \file
/// Scenario registry and the workload→engine hook: every packaged LAV
/// scenario (scenarios.h) is constructible by name, and any scenario can
/// drive any rewriting strategy by engine name through the unified
/// RewritingEngine layer (rewriting/engine.h). Tests and tools iterate
/// ScenarioNames() × EngineNames() instead of hard-wiring (scenario,
/// algorithm) pairs.

#ifndef AQV_WORKLOAD_REGISTRY_H_
#define AQV_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
/// set, is shared across calls.
[[nodiscard]] Result<RewriteResponse> RewriteScenarioWithEngine(const Scenario& scenario,
                                                  std::string_view engine_name,
                                                  const EngineOptions& options);

}  // namespace aqv

#endif  // AQV_WORKLOAD_REGISTRY_H_
