#include "workloads.h"

#include <cstdio>
#include <utility>

#include "frontend/replay.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace aqv_e2e {

namespace {

using aqv::Result;
using aqv::Status;

// Calibrated on a 4-core x86-64 KVM guest (README.md) so that the timed
// phase lasts about as long as the run's --seconds.
const WorkloadSpec kSpecs[] = {
    {"answer_cold", 9.5},
    {"rewrite_hard", 4.5},
    {"hot_repeat", 80.0},
    {"churn_durable", 6.5},
};

/// Session g of a run (connections interleaved) uses scenario seed S + g.
uint64_t ScenarioSeed(uint64_t seed, int conn, int index) {
  return seed + static_cast<uint64_t>(index) * kConnections +
         static_cast<uint64_t>(conn);
}

std::string FirstWord(const std::string& line) {
  return line.substr(0, line.find(' '));
}

Unit Line(Cls cls, const std::string& line) { return Unit{cls, line + "\n", 1}; }

/// A whole problem (views, facts, query) sent in one write.
Unit Load(const std::string& script) {
  Unit unit{Cls::kLoad, "", 0};
  for (const std::string& line : SplitLines(script)) {
    if (line.empty()) continue;
    unit.text += line + "\n";
    ++unit.lines;
  }
  return unit;
}

/// answer_cold: a fresh 60-view problem per session, probed through every
/// answering route. Problems never repeat, so the plan cache never hits
/// and evaluation does most of the work.
Result<SessionScript> AnswerCold(uint64_t scenario_seed) {
  aqv::GeneratedScenarioSpec spec;
  spec.seed = scenario_seed;
  spec.num_views = 60;
  spec.facts_per_predicate = 60;
  spec.domain_size = 100;
  AQV_ASSIGN_OR_RETURN(aqv::Scenario scenario, aqv::GenerateScenario(spec));
  AQV_ASSIGN_OR_RETURN(std::string script, aqv::ScriptFromScenario(scenario));
  SessionScript s;
  s.units.push_back(Line(Cls::kMutation, "reset"));
  s.units.push_back(Load(script));
  for (const char* probe :
       {"answer route direct", "answer route complete with minicon",
        "answer route complete with lmss", "answer route cost",
        "answer route inverse-rules", "rewrite with minicon",
        "rewrite with bucket"}) {
    s.units.push_back(
        Line(probe[0] == 'a' ? Cls::kAnswer : Cls::kRewrite, probe));
  }
  return s;
}

/// rewrite_hard: fresh 4-atom queries over 80 views, every engine, no
/// evaluation. Every other problem has an equivalent rewriting.
Result<SessionScript> RewriteHard(uint64_t scenario_seed, int index) {
  aqv::GeneratedScenarioSpec spec;
  spec.seed = scenario_seed;
  spec.query_atoms = 4;
  spec.num_views = 80;
  spec.facts_per_predicate = 5;
  spec.guarantee_equivalent = index % 2 == 0;
  AQV_ASSIGN_OR_RETURN(aqv::Scenario scenario, aqv::GenerateScenario(spec));
  AQV_ASSIGN_OR_RETURN(std::string script, aqv::ScriptFromScenario(scenario));
  SessionScript s;
  s.units.push_back(Line(Cls::kMutation, "reset"));
  s.units.push_back(Load(script));
  for (const char* engine : {"lmss", "ucq", "minicon", "bucket"}) {
    s.units.push_back(Line(Cls::kRewrite, std::string("rewrite with ") + engine));
  }
  return s;
}

/// hot_repeat: one fixed warehouse problem per fresh connection, then 250
/// probes that the plan cache and the oracle answer almost always. The
/// seed only orders the probes.
Result<SessionScript> HotRepeat(uint64_t scenario_seed) {
  AQV_ASSIGN_OR_RETURN(aqv::Scenario scenario,
                       aqv::MakeWarehouseScenario(/*seed=*/1, /*db_size=*/50));
  AQV_ASSIGN_OR_RETURN(std::string script, aqv::ScriptFromScenario(scenario));
  SessionScript s;
  s.own_connection = true;
  s.units.push_back(Load(script));
  std::vector<std::string> round = {"rewrite with lmss", "rewrite with ucq",
                                    "rewrite with minicon",
                                    "rewrite with bucket",
                                    "answer route direct"};
  aqv::Rng rng(scenario_seed);
  for (int r = 0; r < 50; ++r) {
    rng.Shuffle(&round);
    for (const std::string& probe : round) {
      s.units.push_back(
          Line(probe[0] == 'a' ? Cls::kAnswer : Cls::kRewrite, probe));
    }
  }
  s.units.push_back(Line(Cls::kQuit, "quit"));
  return s;
}

/// churn_durable: a soak script with two churn cycles over a database
/// directory of its own. Each (re)build of the problem is one load; view
/// additions, resets, saves and opens go one line at a time.
Result<SessionScript> ChurnDurable(uint64_t scenario_seed,
                                   const std::string& persist_dir) {
  aqv::GeneratedScenarioSpec spec;
  spec.seed = scenario_seed;
  AQV_ASSIGN_OR_RETURN(aqv::Scenario scenario, aqv::GenerateScenario(spec));
  aqv::SoakScriptOptions options;
  options.seed = scenario_seed;
  options.churn_cycles = 2;
  options.persist_dir = persist_dir;
  AQV_ASSIGN_OR_RETURN(aqv::SoakScript soak,
                       aqv::SoakScriptFromScenario(scenario, options));
  SessionScript s;
  s.own_connection = true;
  s.persist_dir = persist_dir;
  std::vector<std::string> lines = SplitLines(soak.text);
  for (size_t i = 0; i < lines.size();) {
    const std::string word = FirstWord(lines[i]);
    if (word == "view" || word == "fact" || word == "query") {
      size_t end = i;
      bool has_query = false;
      while (end < lines.size()) {
        const std::string w = FirstWord(lines[end]);
        if (w != "view" && w != "fact" && w != "query") break;
        has_query = has_query || w == "query";
        ++end;
      }
      if (has_query) {
        std::string block;
        for (size_t j = i; j < end; ++j) block += lines[j] + "\n";
        s.units.push_back(Load(block));
      } else {
        for (size_t j = i; j < end; ++j) {
          s.units.push_back(Line(Cls::kMutation, lines[j]));
        }
      }
      i = end;
      continue;
    }
    if (word == "reset") {
      s.units.push_back(Line(Cls::kMutation, lines[i]));
    } else if (word == "save" || word == "open") {
      s.units.push_back(Line(Cls::kPersist, lines[i]));
    } else if (word == "answer") {
      s.units.push_back(Line(Cls::kAnswer, lines[i]));
    } else if (word == "rewrite") {
      s.units.push_back(Line(Cls::kRewrite, lines[i]));
    } else if (word == "quit") {
      s.units.push_back(Line(Cls::kQuit, lines[i]));
    } else if (!word.empty() && word[0] != '%') {
      return Status::Internal("unexpected soak command: " + lines[i]);
    }
    ++i;
  }
  return s;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name == name) return spec;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Result<SessionScript> MakeSession(const WorkloadSpec& spec, uint64_t seed,
                                  int conn, int index,
                                  const std::string& work_dir) {
  const uint64_t scenario_seed = ScenarioSeed(seed, conn, index);
  if (spec.name == "answer_cold") return AnswerCold(scenario_seed);
  if (spec.name == "rewrite_hard") return RewriteHard(scenario_seed, index);
  if (spec.name == "hot_repeat") return HotRepeat(scenario_seed);
  if (spec.name == "churn_durable") {
    return ChurnDurable(scenario_seed, work_dir + "/c" + std::to_string(conn) +
                                           "-" + std::to_string(index));
  }
  return Status::InvalidArgument("unknown workload '" + spec.name + "'");
}

std::string InputDigest(const Pools& pools) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& pool : pools) {
    for (const SessionScript& session : pool) {
      for (const Unit& unit : session.units) {
        for (unsigned char c : unit.text) {
          h ^= c;
          h *= 1099511628211ull;
        }
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace aqv_e2e
