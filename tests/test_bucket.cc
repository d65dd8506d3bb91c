#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "containment/containment.h"
#include "containment/homomorphism.h"
#include "cq/parser.h"
#include "cq/substitution.h"
#include "rewriting/bucket.h"
#include "rewriting/pipeline.h"
#include "views/expansion.h"
#include "workload/generator.h"

namespace aqv {
namespace {

class BucketTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  BucketResult Run(const Query& q, const ViewSet& vs,
                   BucketOptions opts = {}) {
    auto r = BucketRewrite(q, vs, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// Runs `q` and pins its output text and counters.
  void ExpectOutcome(const Query& q, const ViewSet& vs, BucketOptions opts,
                     const std::string& rewritings, uint64_t candidates,
                     uint64_t combinations, uint64_t checks) {
    BucketResult res = Run(q, vs, opts);
    uint64_t entries = 0;
    for (const auto& bucket : res.buckets) entries += bucket.size();
    EXPECT_EQ(res.rewritings.ToString(), rewritings);
    EXPECT_EQ(entries, candidates);
    EXPECT_EQ(res.combinations_enumerated, combinations);
    EXPECT_EQ(res.candidates_checked, checks);
  }

  // Soundness: every emitted rewriting's expansion is contained in q.
  void CheckSound(const Query& q, const ViewSet& vs,
                  const UnionQuery& rewritings) {
    for (const Query& rw : rewritings.disjuncts) {
      auto e = ExpandRewriting(rw, vs);
      ASSERT_TRUE(e.ok());
      ASSERT_TRUE(e.value().satisfiable);
      auto sub = IsContainedIn(e.value().query, q);
      ASSERT_TRUE(sub.ok());
      EXPECT_TRUE(sub.value()) << rw.ToString();
    }
  }
};

TEST_F(BucketTest, SingleViewFillsBucket) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.buckets.size(), 1u);
  EXPECT_EQ(res.buckets[0].size(), 1u);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, EmptyBucketMeansNoRewriting) {
  Query q = Parse("q(X) :- r(X, Y), u(Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  BucketResult res = Run(q, vs);
  EXPECT_TRUE(res.rewritings.empty());
  EXPECT_TRUE(res.buckets[1].empty());
}

TEST_F(BucketTest, DistinguishedVarMustBeExposed) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("v(A) :- r(A, B).");  // hides column 2
  BucketResult res = Run(q, vs);
  EXPECT_TRUE(res.buckets[0].empty());
  EXPECT_TRUE(res.rewritings.empty());
}

TEST_F(BucketTest, ContainmentCheckFiltersBrokenJoins) {
  // Both buckets non-empty, but the join variable is hidden, so every
  // combination fails the containment check.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A) :- e(A, B).\nw(C) :- f(B, C).");
  BucketResult res = Run(q, vs);
  EXPECT_FALSE(res.buckets[0].empty());
  EXPECT_FALSE(res.buckets[1].empty());
  EXPECT_TRUE(res.rewritings.empty());
  EXPECT_GT(res.combinations_enumerated, 0u);
}

TEST_F(BucketTest, JoinSurvivesWhenExposed) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A, B) :- e(A, B).\nw(B, C) :- f(B, C).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
  // And it is in fact equivalent here.
  auto e = ExpandRewriting(res.rewritings.disjuncts[0], vs);
  EXPECT_TRUE(AreEquivalent(e.value().query, q).value());
}

TEST_F(BucketTest, ContainedButNotEquivalentKept) {
  // The view is narrower than the query; bucket keeps it as a contained
  // rewriting (certain-answer semantics).
  Query q = Parse("q(X) :- e(X, Y).");
  ViewSet vs = Views("v(A, B) :- e(A, B), t(B).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, MultipleViewsSameSubgoalMakeUnion) {
  Query q = Parse("q(X) :- e(X, Y).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B), t(B).\n"
      "v2(A, B) :- e(A, B), u(B).");
  BucketResult res = Run(q, vs);
  EXPECT_EQ(res.buckets[0].size(), 2u);
  EXPECT_EQ(res.rewritings.size(), 2);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, SelfJoinViewInducesEquality) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("v(A) :- r(A, A).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  const Query& rw = res.rewritings.disjuncts[0];
  // X and Y collapse in the rewriting head.
  EXPECT_EQ(rw.head().args[0], rw.head().args[1]);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, ConstantInQuerySubgoal) {
  Query q = Parse("q(X) :- r(X, 3).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  // The rewriting must call v(X, 3).
  const Query& rw = res.rewritings.disjuncts[0];
  ASSERT_EQ(rw.body().size(), 1u);
  EXPECT_TRUE(rw.body()[0].args[1].is_const());
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, ViewConstantRestrictsCandidate) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A) :- r(A, 3).");
  BucketResult res = Run(q, vs);
  // Usable: v(X) covers r(X,Y) with Y := 3 (contained, not equivalent).
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(BucketTest, CombinationCapSurfaces) {
  Query q = Parse("q(X) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B).\nv2(A, B) :- e(A, B), t(B).\n"
      "w1(B, C) :- f(B, C).\nw2(B, C) :- f(B, C), u(C).");
  BucketOptions opts;
  opts.max_combinations = 1;
  auto r = BucketRewrite(q, vs, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BucketTest, CombinationCapIsExactAtTheProduct) {
  // Two entries per bucket: four combinations. A cap of four enumerates
  // them all; a cap of three fails.
  Query q = Parse("q(X) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B).\nv2(A, B) :- e(A, B), t(B).\n"
      "w1(B, C) :- f(B, C).\nw2(B, C) :- f(B, C), u(C).");
  BucketOptions opts;
  opts.max_combinations = 4;
  BucketResult res = Run(q, vs, opts);
  EXPECT_EQ(res.combinations_enumerated, 4u);
  EXPECT_EQ(res.rewritings.size(), 4);
  opts.max_combinations = 3;
  auto r = BucketRewrite(q, vs, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "ResourceExhausted: bucket combinations exceeded "
            "max_combinations=3");
}

TEST_F(BucketTest, CombinationCapFailsBeforeEnumerating) {
  // A 12-atom chain with 20 entries per bucket: 20^12 ≈ 4.1e15
  // combinations, past a cap of 10^15 that no enumeration could reach.
  std::string query = "q(X0, X12) :- ";
  for (int i = 0; i < 12; ++i) {
    query += (i == 0 ? "" : ", ") + std::string("e(X") + std::to_string(i) +
             ", X" + std::to_string(i + 1) + ")";
  }
  std::string views;
  for (int k = 0; k < 20; ++k) {
    views += "v" + std::to_string(k) + "(A, B) :- e(A, B), p" +
             std::to_string(k) + "(A).\n";
  }
  Query q = Parse(query + ".");
  ViewSet vs = Views(views);
  BucketOptions opts;
  opts.max_combinations = 1'000'000'000'000'000;
  auto r = BucketRewrite(q, vs, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "ResourceExhausted: bucket combinations exceeded "
            "max_combinations=1000000000000000");
}

TEST_F(BucketTest, EnrichmentRecoversJoinPredicateRewritings) {
  // Regression for the classic Bucket incompleteness: the subchain views
  // expose the join variable, but each bucket entry introduces a fresh
  // variable for the other endpoint, so no plain combination is contained
  // in q. The validation step's join-predicate enrichment (probe
  // homomorphisms into q) must recover the rewriting MiniCon finds
  // directly. (Found by the MiniConEqualsBucketAsUnions property sweep.)
  Query q = Parse("q(X0, X3) :- r1(X0, X1), r2(X1, X2), r3(X2, X3).");
  ViewSet vs = Views(
      "v1(Y0, Y2) :- r1(Y0, Y1), r2(Y1, Y2).\n"
      "v5(Y2, Y3) :- r3(Y2, Y3).");
  BucketResult res = Run(q, vs);
  ASSERT_FALSE(res.rewritings.empty());
  CheckSound(q, vs, res.rewritings);
  // Some disjunct must be fully equivalent to q.
  bool found_equivalent = false;
  for (const Query& rw : res.rewritings.disjuncts) {
    auto e = ExpandRewriting(rw, vs);
    ASSERT_TRUE(e.ok());
    if (AreEquivalent(e.value().query, q).value()) found_equivalent = true;
  }
  EXPECT_TRUE(found_equivalent);
  // The direct combination fails and is counted; its one enrichment
  // passes and is counted too.
  EXPECT_EQ(res.combinations_enumerated, 1u);
  EXPECT_EQ(res.candidates_checked, 2u);
}

TEST_F(BucketTest, ConstantClashIsUnbuildableAndUnchecked) {
  // The two entries pin X to 1 and to 2: the combination never reaches a
  // containment check, and neither entry's unfolding (r(1, 1), s(2, 2))
  // maps into q, so no enrichment probe runs either.
  Query q = Parse("q(X) :- r(X, 1), s(X, 2).");
  ViewSet vs = Views("v(A) :- r(A, A).\nw(B) :- s(B, B).");
  ExpectOutcome(q, vs, {}, "", /*candidates=*/2, /*combinations=*/1,
                /*checks=*/0);
}

TEST_F(BucketTest, FailingCombinationSkipsProbeThatCannotMap) {
  // v hides the join variable, so the combination fails its check; v's
  // unfolding carries g, which q lacks, so the probe is skipped and
  // nothing is enriched.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A) :- e(A, B), g(B).\nw(B, C) :- f(B, C).");
  ExpectOutcome(q, vs, {}, "", /*candidates=*/2, /*combinations=*/1,
                /*checks=*/1);
}

TEST_F(BucketTest, ViewComparisonKeepsPerCombinationVerification) {
  // v carries a comparison, so every combination is verified through
  // BuildAndVerify. v(X, Y) with w is contained in q but not equivalent to
  // it; u(X) with w fails, and its enrichment (u(X), w(Y, Z)) fails too.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v(A, B) :- e(A, B), B < 5.\n"
      "w(B, C) :- f(B, C).\n"
      "u(A) :- e(A, B).");
  ExpectOutcome(q, vs, {}, "q(X, Z) :- v(X, Y), w(Y, Z).\n",
                /*candidates=*/3, /*combinations=*/2, /*checks=*/3);
}

TEST_F(BucketTest, NodeBudgetBindsTheDirectChecksAsBefore) {
  // Default-spec problems under tiny containment budgets. Each outcome
  // (the status, or the rewriting count and counters) is what
  // BucketRewrite returned when these checks still ran through
  // IsContainedIn on a built expansion Query, so the span search must
  // spend the budget exactly as that path did.
  struct Case {
    uint64_t seed;
    uint64_t budget;
    int rewritings;  // -1: kResourceExhausted
    uint64_t combinations;
    uint64_t checks;
  };
  const std::vector<Case> cases = {
      {1, 5, 25, 350, 352},   {1, 8, 25, 350, 352},   {1, 20, 25, 350, 352},
      {7, 5, -1, 0, 0},       {7, 8, 50, 234, 262},   {7, 20, 50, 234, 262},
      {16, 5, 72, 147, 147},  {16, 8, 72, 147, 147},  {16, 20, 72, 147, 147},
      {30, 5, 21, 80, 84},    {30, 8, 21, 80, 84},    {30, 20, 21, 80, 84},
  };
  auto run = [](uint64_t seed, uint64_t budget) {
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    Scenario scenario = GenerateScenario(spec).value();
    BucketOptions opts;
    opts.containment.node_budget = budget;
    return BucketRewrite(scenario.query, scenario.views, opts);
  };
  for (uint64_t seed : {1, 7, 16, 30}) {
    for (uint64_t budget : {1, 3}) {
      Result<BucketResult> r = run(seed, budget);
      ASSERT_FALSE(r.ok()) << seed << " " << budget;
      EXPECT_EQ(r.status().ToString(),
                "ResourceExhausted: homomorphism search exceeded node "
                "budget of " + std::to_string(budget));
    }
  }
  for (const Case& c : cases) {
    std::string label = "seed " + std::to_string(c.seed) + " budget " +
                        std::to_string(c.budget);
    Result<BucketResult> r = run(c.seed, c.budget);
    if (c.rewritings < 0) {
      ASSERT_FALSE(r.ok()) << label;
      EXPECT_EQ(r.status().ToString(),
                "ResourceExhausted: homomorphism search exceeded node "
                "budget of " + std::to_string(c.budget))
          << label;
      continue;
    }
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    EXPECT_EQ(r->rewritings.size(), c.rewritings) << label;
    EXPECT_EQ(r->combinations_enumerated, c.combinations) << label;
    EXPECT_EQ(r->candidates_checked, c.checks) << label;
  }
}

TEST_F(BucketTest, ComparisonQuerySoundness) {
  Query q = Parse("q(X) :- r(X, Y), X < 3.");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  BucketResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  // The rewriting carries the comparison along.
  EXPECT_EQ(res.rewritings.disjuncts[0].comparisons().size(), 1u);
  CheckSound(q, vs, res.rewritings);
}

// --- reference combination loop ---------------------------------------
//
// BucketRewrite decides comparison-free combinations on per-entry
// unfoldings. The reference below verifies every combination through
// BuildAndVerify instead (build, expand, then the containment checks), and
// runs the join-predicate enrichment probe whenever the direct check fails.
// Given the same buckets, the two must emit the same rewritings in the same
// order, and count the same combinations and checks.

struct ReferenceOutcome {
  std::string rewritings;
  uint64_t combinations = 0;
  uint64_t checked = 0;
};

/// The enrichment probe over q's variable space: q's variables keep their
/// ids, each pick's fresh variables get a block of their own, and each
/// pick's view body is unfolded with its existentials imported fresh.
Query ReferenceProbe(const Query& q, const ViewSet& views,
                     const std::vector<const ViewAtomCandidate*>& picks) {
  Query probe(q.catalog());
  for (int v = 0; v < q.num_vars(); ++v) probe.AddVariable(q.var_name(v));
  probe.set_head(q.head());
  int total_fresh = 0;
  for (const ViewAtomCandidate* pick : picks) total_fresh += pick->num_fresh;
  probe.AddVariables(total_fresh, "PF");
  std::vector<Atom> remapped;
  int fresh_base = q.num_vars();
  for (const ViewAtomCandidate* pick : picks) {
    Atom a = pick->atom;
    for (Term& t : a.args) {
      if (t.is_var() && t.var() >= q.num_vars()) {
        t = Term::Var(fresh_base + (t.var() - q.num_vars()));
      }
    }
    remapped.push_back(std::move(a));
    fresh_base += pick->num_fresh;
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    const Atom& a = remapped[i];
    const Query& def = views.FindByPred(a.pred)->definition;
    VarImporter imp(def, &probe, "pe" + std::to_string(i) + "_");
    for (int j = 0; j < a.arity(); ++j) {
      Term h = def.head().args[j];
      if (h.is_var() && !imp.HasMapping(h.var())) {
        imp.Preset(h.var(), a.args[j]);
      }
    }
    for (const Atom& b : def.body()) probe.AddBodyAtom(imp.ImportAtom(b));
  }
  return probe;
}

/// The picks with a probe homomorphism applied to their arguments.
std::vector<ViewAtomCandidate> ReferenceEnrich(
    const Query& q, const std::vector<const ViewAtomCandidate*>& picks,
    const Substitution& g) {
  std::vector<ViewAtomCandidate> out;
  int fresh_base = q.num_vars();
  for (const ViewAtomCandidate* pick : picks) {
    ViewAtomCandidate e = *pick;
    for (Term& t : e.atom.args) {
      if (!t.is_var()) continue;
      VarId v = t.var();
      if (v >= q.num_vars()) v = fresh_base + (v - q.num_vars());
      if (v < g.num_source_vars() && g.IsBound(v)) t = g.Get(v);
    }
    fresh_base += e.num_fresh;
    e.num_fresh = 0;
    out.push_back(std::move(e));
  }
  return out;
}

/// Probe homomorphisms BucketRewrite tries per failing combination.
constexpr size_t kReferenceEnrichmentCap = 16;

Result<ReferenceOutcome> ReferenceLoop(
    const Query& q, const ViewSet& views,
    const std::vector<std::vector<ViewAtomCandidate>>& buckets,
    const BucketOptions& options) {
  ReferenceOutcome out;
  for (const auto& bucket : buckets) {
    if (bucket.empty()) return out;
  }
  const int n = static_cast<int>(buckets.size());
  QueryDeduper seen;
  UnionQuery rewritings;
  auto try_candidate =
      [&](const std::vector<const ViewAtomCandidate*>& picks) -> Result<bool> {
    AQV_ASSIGN_OR_RETURN(
        ExpansionCheck check,
        BuildAndVerify(q, views, picks, q.has_comparisons(),
                       VerifyLevel::kContained, options.containment));
    if (!check.rewriting.has_value()) return false;
    ++out.checked;
    if (!check.passed) return false;
    if (seen.Insert(*check.rewriting)) {
      rewritings.disjuncts.push_back(std::move(*check.rewriting));
    }
    return true;
  };
  std::vector<int> choice(n, 0);
  for (;;) {
    ++out.combinations;
    std::vector<const ViewAtomCandidate*> picks;
    for (int i = 0; i < n; ++i) picks.push_back(&buckets[i][choice[i]]);
    AQV_ASSIGN_OR_RETURN(bool hit, try_candidate(picks));
    if (!hit) {
      Query probe = ReferenceProbe(q, views, picks);
      HomSearchOptions hopts;
      hopts.node_budget = options.containment.node_budget;
      std::vector<Substitution> enrichments;
      auto cb = [&](const Substitution& g) {
        enrichments.push_back(g);
        return enrichments.size() < kReferenceEnrichmentCap;
      };
      AQV_ASSIGN_OR_RETURN(int64_t homs,
                           ForEachHomomorphism(probe, q, hopts, cb));
      (void)homs;
      for (const Substitution& g : enrichments) {
        std::vector<ViewAtomCandidate> enriched = ReferenceEnrich(q, picks, g);
        std::vector<const ViewAtomCandidate*> eps;
        for (const ViewAtomCandidate& e : enriched) eps.push_back(&e);
        AQV_ASSIGN_OR_RETURN(bool enriched_hit, try_candidate(eps));
        (void)enriched_hit;
      }
    }
    int pos = n - 1;
    while (pos >= 0) {
      if (++choice[pos] < static_cast<int>(buckets[pos].size())) break;
      choice[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  out.rewritings = rewritings.ToString();
  return out;
}

/// Runs BucketRewrite, replays its buckets through the reference loop, and
/// returns the rewriting count (0 on a mismatch, which is also reported).
int ExpectMatchesReference(const Scenario& scenario, const std::string& label) {
  BucketOptions opts;
  Result<BucketResult> real = BucketRewrite(scenario.query, scenario.views, opts);
  EXPECT_TRUE(real.ok()) << label << ": " << real.status().ToString();
  if (!real.ok()) return 0;
  Result<ReferenceOutcome> ref =
      ReferenceLoop(scenario.query, scenario.views, real->buckets, opts);
  EXPECT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();
  if (!ref.ok()) return 0;
  EXPECT_EQ(real->rewritings.ToString(), ref->rewritings) << label;
  EXPECT_EQ(real->combinations_enumerated, ref->combinations) << label;
  EXPECT_EQ(real->candidates_checked, ref->checked) << label;
  return real->rewritings.size();
}

TEST_F(BucketTest, MatchesBuildAndVerifyReferenceOnGeneratedProblems) {
  int rewritings = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    Result<Scenario> scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    rewritings += ExpectMatchesReference(
        *scenario, "default seed " + std::to_string(seed));
  }
  // The rewrite_hard shape (4-atom queries), at half its view count.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    spec.query_atoms = 4;
    spec.num_views = 40;
    spec.facts_per_predicate = 5;
    spec.guarantee_equivalent = seed % 2 == 0;
    Result<Scenario> scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    rewritings +=
        ExpectMatchesReference(*scenario, "hard seed " + std::to_string(seed));
  }
  EXPECT_GT(rewritings, 0);
}

}  // namespace
}  // namespace aqv
