/// \file
/// The workload→engine hook the engine and generator tests drive: any
/// scenario (workload/scenarios.h, workload/generator.h) through any
/// rewriting strategy by engine name (rewriting/engine.h).

#ifndef AQV_TESTING_REWRITE_SCENARIO_H_
#define AQV_TESTING_REWRITE_SCENARIO_H_

#include <string_view>

#include "rewriting/engine.h"
#include "util/status.h"
#include "workload/scenarios.h"

namespace aqv {

/// \brief Runs one engine on one scenario: wraps the scenario's query and
/// views into a RewriteRequest (singleton union; the ucq engine accepts it
/// too) and dispatches through the engine registry. `options.oracle`, when
/// set, is shared across calls.
[[nodiscard]] Result<RewriteResponse> RewriteScenarioWithEngine(
    const Scenario& scenario, std::string_view engine_name,
    const EngineOptions& options);

}  // namespace aqv

#endif  // AQV_TESTING_REWRITE_SCENARIO_H_
