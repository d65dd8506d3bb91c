// Certain answers under sound views (open-world assumption): what can be
// concluded with certainty from view extents alone, three ways —
//
//   1. the maximally-contained MiniCon union evaluated over the extents,
//   2. inverse rules: skolemized reconstruction + query + filter,
//   3. brute-force possible-world intersection (tiny instance only),
//
// all of which must agree. Run with no arguments for the worked example.

#include <cstdio>

#include "cq/parser.h"
#include "eval/certain.h"
#include "eval/datalog.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/minicon.h"
#include "testing/reference.h"

using namespace aqv;

int main() {
  Catalog catalog;

  // Sources: a route catalogue that hides the hub, and a hub directory.
  ViewSet views = ViewSet::Parse(R"(
    % Source A: city pairs connected via SOME hub (hub hidden).
    via_hub(X, Z) :- leg(X, Y), leg(Y, Z).
    % Source B: direct legs out of known hubs.
    from_hub(Y, Z) :- leg(Y, Z), hub(Y).
  )",
                                 &catalog)
                      .value();
  Query query = ParseQuery("q(X, Z) :- leg(X, Y), leg(Y, Z).", &catalog)
                    .value();
  std::printf("query: %s\n", query.ToString().c_str());
  for (const View& v : views.views()) {
    std::printf("view:  %s\n", v.definition.ToString().c_str());
  }

  // The extents the mediator sees (no base data anywhere).
  Database extents(&catalog);
  PredId via_hub = catalog.FindPredicate("via_hub").value();
  PredId from_hub = catalog.FindPredicate("from_hub").value();
  extents.Add(via_hub, {1, 3});   // 1 reaches 3 via some hub
  extents.Add(from_hub, {2, 3});  // hub 2 has a direct leg to 3

  // Route 1: MiniCon maximally-contained union.
  MiniConResult mc = MiniConRewrite(query, views).value();
  std::printf("\nmaximally-contained union:\n");
  for (const Query& rw : mc.rewritings.disjuncts) {
    std::printf("  %s\n", rw.ToString().c_str());
  }
  Relation mc_ans = EvaluateRewritingUnion(query, mc.rewritings, extents).value();
  std::printf("certain answers (MiniCon route):\n%s",
              mc_ans.ToString(catalog).c_str());

  // Route 2: inverse rules.
  InverseRuleSet ir = BuildInverseRules(views).value();
  std::printf("\ninverse rules:\n%s", ir.ToString(catalog).c_str());
  SkolemTable skolems;
  Database reconstructed = ApplyInverseRules(ir, extents, &skolems).value();
  std::printf("reconstructed base facts (Skolems = unknown values):\n");
  for (PredId p : reconstructed.Predicates()) {
    const Relation* rel = reconstructed.Find(p);
    std::printf("  %s:\n", catalog.pred(p).name.c_str());
    std::printf("%s", rel->ToString(catalog, &skolems).c_str());
  }
  Relation ir_ans = CertainAnswersViaInverseRules(query, ir, extents).value();
  std::printf("certain answers (inverse-rules route):\n%s",
              ir_ans.ToString(catalog).c_str());

  // Route 3: brute force over possible worlds (reference semantics).
  WorldEnumOptions wopts;
  wopts.extra_constants = 2;
  wopts.max_world_tuples = 22;
  auto bf = BruteForceCertainAnswers(query, views, extents, wopts);
  if (bf.ok()) {
    std::printf("certain answers (possible-world intersection):\n%s",
                bf.value().ToString(catalog).c_str());
    std::printf("\nall three routes agree: %s\n",
                Relation::SameSet(mc_ans, ir_ans) &&
                        Relation::SameSet(ir_ans, bf.value())
                    ? "yes"
                    : "NO (bug!)");
  } else {
    std::printf("brute force skipped: %s\n", bf.status().ToString().c_str());
    std::printf("\nMiniCon and inverse-rules routes agree: %s\n",
                Relation::SameSet(mc_ans, ir_ans) ? "yes" : "NO (bug!)");
  }
  return 0;
}
