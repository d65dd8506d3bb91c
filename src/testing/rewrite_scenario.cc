#include "testing/rewrite_scenario.h"

namespace aqv {

Result<RewriteResponse> RewriteScenarioWithEngine(
    const Scenario& scenario, std::string_view engine_name,
    const EngineOptions& options) {
  RewriteRequest request;
  request.query.disjuncts.push_back(scenario.query);
  request.views = &scenario.views;
  request.options = options;
  return RunEngine(engine_name, request);
}

}  // namespace aqv
