/// \file
/// Scenario registry: every packaged LAV scenario (scenarios.h) is
/// constructible by name, so tests and tools iterate ScenarioNames() ×
/// EngineNames() (rewriting/engine.h) instead of hard-wiring (scenario,
/// algorithm) pairs.

#ifndef AQV_WORKLOAD_REGISTRY_H_
#define AQV_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace aqv

#endif  // AQV_WORKLOAD_REGISTRY_H_
