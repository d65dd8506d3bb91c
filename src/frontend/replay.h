/// \file
/// Workload → frontend bridge: renders a packaged LAV scenario
/// (workload/scenarios.h) as an aqvsh/Session command script — one `view`
/// command per view rule, one `fact` per base tuple, then the scenario
/// query. Replaying the script through a Session round-trips the whole
/// problem through the surface syntax (docs/QUERY_LANGUAGE.md), which is
/// how the frontend tests drive realistic session traffic instead of
/// hand-typed toys.

#ifndef AQV_FRONTEND_REPLAY_H_
#define AQV_FRONTEND_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "workload/scenarios.h"

namespace aqv {

/// \brief Renders `scenario` as a command script: `view` lines in view-set
/// order, `fact` lines per base relation in PredId order (row order as
/// stored), and a final `query` line. kInvalidArgument when a base value
/// cannot be written in the surface syntax (a Skolem, or a symbolic
/// constant that does not lex as a constant token).
[[nodiscard]] Result<std::string> ScriptFromScenario(const Scenario& scenario);

/// Knobs of the soak-script renderer (SoakScriptFromScenario). All
/// randomness (churn membership, probe engine rotation) comes from `seed`
/// — same scenario + same options, byte-identical script.
struct SoakScriptOptions {
  uint64_t seed = 1;
  /// Engines the probes rotate through (`rewrite with <e>`, and the
  /// engine of `answer route complete`).
  std::vector<std::string> engines = {"minicon", "lmss"};
  /// Answer routes probed after every phase, in this order.
  std::vector<std::string> routes = {"direct", "complete", "inverse-rules",
                                     "cost"};
  /// One `rewrite with <engine>` probe per phase.
  bool include_rewrites = true;
  /// View-churn cycles. Each cycle adds held-back views ("add" churn)
  /// and then retires a fraction of the active set ("retire" churn —
  /// rendered as `reset` + a rebuild of the survivors, the only retire
  /// mechanism the command language has). 0 = a single static phase.
  int churn_cycles = 0;
  /// Fraction of views withheld from phase 0 and added across cycles.
  double holdback_fraction = 0.2;
  /// Fraction of the active views retired per cycle.
  double retire_fraction = 0.25;
  /// When non-empty: the script persists itself through this database
  /// directory — `save` after every (re)build, `open` after every add
  /// churn (a recovery probe: the probes that follow interrogate state
  /// reloaded from disk + journal replay instead of the live session).
  /// Must not contain whitespace (the save/open command syntax).
  std::string persist_dir;
};

/// A rendered soak script plus the ground-truth expectations tests and the
/// soak driver assert against.
struct SoakScript {
  /// The command text, ending in `quit`.
  std::string text;
  /// Probe groups emitted (initial phase + churn add/retire phases).
  int phases = 0;
  /// Views live in the session after the final phase.
  int final_views = 0;
  /// Total `answer` / `rewrite` probe commands in the script.
  int answer_probes = 0;
  int rewrite_probes = 0;
  /// Total `save` / `open` commands (0 unless persist_dir is set).
  int saves = 0;
  int opens = 0;
};

/// \brief Renders `scenario` as a probed, churning session script: each
/// phase (re)defines part of the problem and then interrogates it with
/// `rewrite`/`answer` probes across engines and routes — the replayable
/// unit of the differential soak harness (testing/differential.h). The
/// script is deterministic in (scenario, options) and never emits
/// non-replayable commands (`load`, `show stats`, `STATS`).
[[nodiscard]] Result<SoakScript> SoakScriptFromScenario(const Scenario& scenario,
                                          const SoakScriptOptions& options);

}  // namespace aqv

#endif  // AQV_FRONTEND_REPLAY_H_
