#include "workload/registry.h"

#include <algorithm>

#include "workload/generator.h"

namespace aqv {

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"travel", "warehouse", "bibliography"};
  return *names;
}

Result<Scenario> MakeScenarioByName(std::string_view name, uint64_t seed,
                                    int db_size) {
  if (name == "travel") return MakeTravelScenario(seed, db_size);
  if (name == "warehouse") return MakeWarehouseScenario(seed, db_size);
  if (name == "bibliography") return MakeBibliographyScenario(seed, db_size);
  if (name == "generated") {
    // A default-spec instance of the scenario-family generator
    // (workload/generator.h), sized off db_size like the hand-tiled
    // scenarios. Deliberately NOT in ScenarioNames(): the hand-tiled
    // grids that iterate the registry stay unchanged.
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    spec.facts_per_predicate = std::max(4, db_size / 10);
    spec.domain_size = std::max(8, db_size / 2);
    return GenerateScenario(spec);
  }
  return Status::NotFound("no scenario named '" + std::string(name) + "'");
}

}  // namespace aqv
