/// F11 — the scenario-family generator and the soak-script path it feeds
/// (workload/generator.h, frontend/replay.h): what scenario synthesis
/// and script rendering cost, and how fast a Session ingests a churning
/// probed soak script. The soak driver's throughput ceiling is whichever
/// of these is slowest, so each stage gets its own number:
///
///   BM_F11_Generate          GenerateScenario at 100 / 300 / 1000 views
///                            — catalog + views + Zipf base synthesis.
///   BM_F11_RenderSoakScript  SoakScriptFromScenario with churn: the
///                            script-rendering rate, in commands/s.
///   BM_F11_SoakReplay        a fresh Session executing the rendered
///                            soak script end to end (views, facts,
///                            churn resets, probes) — commands/s; the
///                            probe-heavy cousin of BM_F10_ScriptReplay.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "frontend/replay.h"
#include "frontend/session.h"
#include "testing/differential.h"
#include "workload/generator.h"

namespace aqv {
namespace {

GeneratedScenarioSpec SpecWithViews(int num_views) {
  GeneratedScenarioSpec spec;
  spec.seed = 17;
  spec.num_predicates = 16;
  spec.num_views = num_views;
  spec.facts_per_predicate = 10;
  spec.domain_size = 24;
  return spec;
}

void BM_F11_Generate(benchmark::State& state) {
  GeneratedScenarioSpec spec = SpecWithViews(static_cast<int>(state.range(0)));
  int views = 0;
  for (auto _ : state) {
    Scenario scenario;
    if (!bench::UnwrapOrSkip(GenerateScenario(spec), state, &scenario)) {
      return;
    }
    views = scenario.views.size();
    benchmark::DoNotOptimize(scenario);
  }
  state.SetItemsProcessed(state.iterations() * views);
  state.counters["views"] = static_cast<double>(views);
}
BENCHMARK(BM_F11_Generate)->Arg(100)->Arg(300)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_F11_RenderSoakScript(benchmark::State& state) {
  GeneratedScenarioSpec spec = SpecWithViews(static_cast<int>(state.range(0)));
  Scenario scenario = bench::Unwrap(GenerateScenario(spec), "scenario");
  SoakScriptOptions options;
  options.seed = 3;
  options.churn_cycles = 2;
  size_t commands = 0;
  for (auto _ : state) {
    SoakScript script;
    if (!bench::UnwrapOrSkip(SoakScriptFromScenario(scenario, options), state,
                             &script)) {
      return;
    }
    commands = SplitScriptLines(script.text).size();
    benchmark::DoNotOptimize(script);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(commands));
  state.counters["commands"] = static_cast<double>(commands);
}
BENCHMARK(BM_F11_RenderSoakScript)->Arg(100)->Arg(300)->Unit(
    benchmark::kMillisecond);

void BM_F11_SoakReplay(benchmark::State& state) {
  GeneratedScenarioSpec spec = SpecWithViews(static_cast<int>(state.range(0)));
  Scenario scenario = bench::Unwrap(GenerateScenario(spec), "scenario");
  SoakScriptOptions options;
  options.seed = 3;
  // Probes across every route are the expensive part; churn multiplies
  // the view/fact ingest volume.
  options.churn_cycles = state.range(1) == 0 ? 0 : 2;
  SoakScript script =
      bench::Unwrap(SoakScriptFromScenario(scenario, options), "script");
  size_t commands = 0;
  for (auto _ : state) {
    Session session;
    std::vector<CommandResult> results = session.ExecuteScript(script.text);
    commands = session.commands_executed();
    for (const CommandResult& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status.ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(commands));
  state.counters["commands"] = static_cast<double>(commands);
}
BENCHMARK(BM_F11_SoakReplay)
    ->Args({100, 0})
    ->Args({100, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F11", "scenario-family generator: synthesis, soak-"
                            "script rendering, and probed session replay");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
