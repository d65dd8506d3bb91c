/// Certain-answer suite. Hand-written cases pin the inverse-rules route,
/// rewriting-union evaluation, the naive chase and the brute-force
/// possible-world enumerator of testing/reference.h against each other.
/// Two properties over generated comparison-free problems hold the
/// answering routes to completeness, not only soundness: where lmss finds
/// an equivalent rewriting, every engine's complete route equals the
/// direct route; everywhere, complete-with-minicon and inverse-rules equal
/// the chase, and complete-with-bucket is a subset of it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "answering/answering.h"
#include "cq/parser.h"
#include "eval/certain.h"
#include "eval/materialize.h"
#include "rewriting/bucket.h"
#include "rewriting/minicon.h"
#include "testing/reference.h"
#include "workload/generator.h"

namespace aqv {
namespace {

class CertainTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// The chase must give exactly `expected` (the brute force's answers).
  void ExpectChaseMatches(const Query& q, const ViewSet& vs,
                          const Database& extents, const Relation& expected) {
    UnionQuery u;
    u.disjuncts.push_back(q);
    auto chase = ChaseCertainAnswers(u, vs, extents);
    ASSERT_TRUE(chase.ok()) << chase.status().ToString();
    EXPECT_TRUE(Relation::SameSet(*chase, expected))
        << "chase:\n" << chase->ToString(cat_)
        << "brute force:\n" << expected.ToString(cat_);
  }
};

TEST_F(CertainTest, InverseRulesRecoverJoinableAnswers) {
  // v exposes both endpoints of r; certain answers = extent itself.
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("v(X, Y) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v").value(), {1, 2});
  extents.Add(cat_.FindPredicate("v").value(), {3, 4});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().size(), 2u);
}

TEST_F(CertainTest, SkolemAnswersAreDropped) {
  // v hides Y; asking for (X, Y) pairs can never be certain about Y.
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("vh(X) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh").value(), {1});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().empty());
}

TEST_F(CertainTest, ProjectedQueryStillCertain) {
  // Same hidden column, but the query only asks for X.
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("vh2(X) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh2").value(), {1});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({1}));
}

TEST_F(CertainTest, SkolemJoinRecoversAcrossAtoms) {
  // The hidden join variable still joins inside one view.
  Query q = Parse("q(X, Z) :- r(X, Y), s(Y, Z).");
  ViewSet vs = Views("vj(X, Z) :- r(X, Y), s(Y, Z).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vj").value(), {1, 9});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({1, 9}));
}

TEST_F(CertainTest, NoCrossViewSkolemJoins) {
  // Different views get different Skolems: no spurious certain answers.
  Query q = Parse("q(X, Z) :- r(X, Y), s(Y, Z).");
  ViewSet vs = Views("vr(X) :- r(X, Y).\nvs(Z) :- s(Y, Z).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vr").value(), {1});
  extents.Add(cat_.FindPredicate("vs").value(), {9});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().empty());
}

TEST_F(CertainTest, RewritingUnionEvaluation) {
  Query q = Parse("q(X) :- e(X, Y), t(Y).");
  ViewSet vs = Views("v1(A) :- e(A, B), t(B).");
  auto mc = MiniConRewrite(q, vs);
  ASSERT_TRUE(mc.ok());
  ASSERT_EQ(mc.value().rewritings.size(), 1);
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v1").value(), {7});
  auto ans = EvaluateRewritingUnion(q, mc.value().rewritings, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({7}));
}

TEST_F(CertainTest, EmptyUnionIsTypedEmptyResult) {
  // No contained rewriting ⇒ no derivable certain answers: an empty
  // relation of the query's own head type, not an error (regression: this
  // used to return kInvalidArgument and force every caller to
  // special-case empty unions).
  Query q = Parse("q(X, Y) :- r(X, Y).");
  UnionQuery empty;
  Database extents(&cat_);
  auto ans = EvaluateRewritingUnion(q, empty, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(ans.value().empty());
  EXPECT_EQ(ans.value().arity(), 2);
  EXPECT_EQ(ans.value().pred(), q.head().pred);
}

TEST_F(CertainTest, UnionDisjunctArityMismatchIsAnError) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  UnionQuery wrong;
  wrong.disjuncts.push_back(Parse("w(X) :- r(X, Y)."));
  Database extents(&cat_);
  auto ans = EvaluateRewritingUnion(q, wrong, extents);
  ASSERT_FALSE(ans.ok());
  EXPECT_EQ(ans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CertainTest, NullaryQueryCertainAnswerAddedOnce) {
  // Boolean query: the certain answer is the single empty row, present
  // exactly once (regression: the arity-0 path used to add it twice
  // before SortDedup).
  Query q = Parse("q() :- r(X, Y).");
  ViewSet vs = Views("vb(X, Y) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vb").value(), {1, 2});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().arity(), 0);
  EXPECT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({}));

  // And with an empty extent the boolean query is not certain.
  Database no_extent(&cat_);
  auto none = CertainAnswersViaInverseRules(q, ir, no_extent);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST_F(CertainTest, UnionQueryInverseRulesRoute) {
  // Certain answers of a UCQ: both disjuncts contribute.
  UnionQuery u;
  u.disjuncts.push_back(Parse("q(X) :- r(X, Y)."));
  u.disjuncts.push_back(Parse("q(X) :- s(X)."));
  ViewSet vs = Views(
      "vr2(X, Y) :- r(X, Y).\n"
      "vs2(X) :- s(X).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vr2").value(), {1, 2});
  extents.Add(cat_.FindPredicate("vs2").value(), {7});
  auto ans = CertainAnswersViaInverseRules(u, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().size(), 2u);
  EXPECT_TRUE(ans.value().Contains({1}));
  EXPECT_TRUE(ans.value().Contains({7}));
}

TEST_F(CertainTest, PipelineMatchesInverseRulesOnMaterializedExtents) {
  // End-to-end: base DB -> extents -> MiniCon answers == IR answers, and
  // both under-approximate q over the base (soundness of certain answers).
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "va(A, B) :- e(A, B).\n"
      "vb(B, C) :- f(B, C).\n"
      "vc(A, C) :- e(A, B), f(B, C).");
  Database base(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  base.Add(e, {1, 2});
  base.Add(e, {4, 5});
  base.Add(f, {2, 3});
  base.Add(f, {5, 6});
  base.Add(f, {7, 8});
  Database extents = MaterializeViews(vs, base).value();

  auto mc = MiniConRewrite(q, vs);
  ASSERT_TRUE(mc.ok());
  auto mc_ans = EvaluateRewritingUnion(q, mc.value().rewritings, extents);
  ASSERT_TRUE(mc_ans.ok());

  InverseRuleSet ir = BuildInverseRules(vs).value();
  auto ir_ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ir_ans.ok());

  EXPECT_TRUE(Relation::SameSet(mc_ans.value(), ir_ans.value()))
      << "MiniCon:\n" << mc_ans.value().ToString(cat_)
      << "IR:\n" << ir_ans.value().ToString(cat_);

  auto direct = EvaluateQuery(q, base);
  ASSERT_TRUE(direct.ok());
  for (auto& row : mc_ans.value().Rows()) {
    EXPECT_TRUE(direct.value().Contains(row));
  }
  // Here views preserve all the information, so equality holds.
  EXPECT_TRUE(Relation::SameSet(mc_ans.value(), direct.value()));
}

TEST_F(CertainTest, BruteForceAgreesOnTinyInstance) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v").value(), {1, 2});

  InverseRuleSet ir = BuildInverseRules(vs).value();
  auto ir_ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ir_ans.ok());

  WorldEnumOptions opts;
  opts.extra_constants = 1;
  opts.max_world_tuples = 18;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  EXPECT_TRUE(Relation::SameSet(ir_ans.value(), bf.value()))
      << "IR:\n" << ir_ans.value().ToString(cat_)
      << "BF:\n" << bf.value().ToString(cat_);
  ExpectChaseMatches(q, vs, extents, bf.value());
}

TEST_F(CertainTest, BruteForceDropsUncertainHiddenColumn) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("vh3(A) :- r(A, B).");
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh3").value(), {1});
  WorldEnumOptions opts;
  opts.extra_constants = 2;  // B could be either fresh value
  opts.max_world_tuples = 18;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  EXPECT_TRUE(bf.value().empty());
  ExpectChaseMatches(q, vs, extents, bf.value());
}

TEST_F(CertainTest, ChaseAgreesWithBruteForceOnTinyInstances) {
  // One base predicate each, so the world lattice stays small: repeated
  // variables, joins inside one view, hidden join variables, a boolean
  // query, and a constant in a view's body.
  struct Case {
    const char* query;
    const char* view;
    std::vector<std::vector<Value>> extent;
    size_t certain;
  };
  const std::vector<Case> cases = {
      {"q1(X) :- r(X, X).", "t1(A) :- r(A, A).", {{1}}, 1},
      {"q2(X) :- r(X, Y), r(Y, X).", "t2(A, B) :- r(A, B), r(B, A).",
       {{1, 2}}, 2},
      {"q3(X) :- r(X, Y), r(Y, Z).", "t3(A) :- r(A, B).", {{1}}, 0},
      {"q4(X, Z) :- r(X, Y), r(Y, Z).", "t4(A, C) :- r(A, B), r(B, C).",
       {{1, 2}}, 1},
      {"q5() :- r(X, Y).", "t5(A) :- r(A, B).", {{1}}, 1},
      {"q6(X) :- r(X, 2).", "t6(A) :- r(A, 2).", {{1}}, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    Query q = Parse(c.query);
    ViewSet vs = Views(c.view);
    Database extents(&cat_);
    for (const auto& row : c.extent) extents.Add(vs.view(0).pred, row);
    WorldEnumOptions opts;
    opts.extra_constants = 1;
    opts.max_world_tuples = 18;
    auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
    ASSERT_TRUE(bf.ok()) << bf.status().ToString();
    EXPECT_EQ(bf->size(), c.certain) << bf->ToString(cat_);
    ExpectChaseMatches(q, vs, extents, *bf);
  }
}

TEST_F(CertainTest, ChaseRefusesWhatItCannotModel) {
  Query q = Parse("q(X) :- r(X, Y).");
  Database extents(&cat_);
  UnionQuery u;
  u.disjuncts.push_back(q);
  ViewSet with_comparison = Views("c1(A, B) :- r(A, B), A < B.");
  EXPECT_EQ(ChaseCertainAnswers(u, with_comparison, extents).status().code(),
            StatusCode::kUnimplemented);
  ViewSet union_source = Views("c2(A) :- r(A, B).");
  ASSERT_TRUE(union_source.AddRule(Parse("c2(A) :- s(A).")).ok());
  EXPECT_EQ(ChaseCertainAnswers(u, union_source, extents).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(CertainTest, BruteForceCapSurfaces) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("vbig(A, B) :- r(A, B).");
  Database extents(&cat_);
  for (int i = 0; i < 5; ++i) {
    extents.Add(cat_.FindPredicate("vbig").value(), {i, i + 1});
  }
  WorldEnumOptions opts;
  opts.max_world_tuples = 4;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_FALSE(bf.ok());
  EXPECT_EQ(bf.status().code(), StatusCode::kResourceExhausted);
}

/// The generated problems both completeness properties run on: the
/// answer_cold benchmark's shape (60 views, 60 facts per predicate over
/// 100 constants) and the default spec, each with guarantee_equivalent on
/// and off, seeds 7-56: 200 comparison-free problems.
std::vector<GeneratedScenarioSpec> CompletenessSpecs() {
  std::vector<GeneratedScenarioSpec> specs;
  for (bool answer_cold_shape : {true, false}) {
    for (bool equivalent : {true, false}) {
      for (uint64_t seed = 7; seed <= 56; ++seed) {
        GeneratedScenarioSpec spec;
        spec.seed = seed;
        spec.guarantee_equivalent = equivalent;
        if (answer_cold_shape) {
          spec.num_views = 60;
          spec.facts_per_predicate = 60;
          spec.domain_size = 100;
        }
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

std::string SpecLabel(const GeneratedScenarioSpec& spec) {
  return "seed=" + std::to_string(spec.seed) +
         " facts=" + std::to_string(spec.facts_per_predicate) +
         " equivalent=" + (spec.guarantee_equivalent ? "on" : "off");
}

/// One generated problem over extents materialized exactly from its base,
/// as a Session holds them.
class GeneratedProblem {
 public:
  explicit GeneratedProblem(Scenario s)
      : s_(std::move(s)), extents_(MaterializeViews(s_.views, s_.base).value()) {
    for (const View& v : s_.views.views()) {
      EXPECT_TRUE(v.definition.comparisons().empty());
    }
    EXPECT_TRUE(s_.query.comparisons().empty());
  }

  /// The `route` answer (with `engine` on the complete route).
  AnswerResponse Answer(AnswerRoute route, const std::string& engine = "") {
    AnswerRequest request;
    request.query.disjuncts.push_back(s_.query);
    request.views = &s_.views;
    request.base = &s_.base;
    request.extents = &extents_;
    request.route = route;
    if (!engine.empty()) request.engine = engine;
    auto response = AnswerQuery(request);
    EXPECT_TRUE(response.ok())
        << AnswerRouteName(route) << " " << engine << ": "
        << response.status().ToString();
    return response.ok() ? std::move(response).value() : AnswerResponse{};
  }

  Relation Chase() const {
    UnionQuery q;
    q.disjuncts.push_back(s_.query);
    auto chase = ChaseCertainAnswers(q, s_.views, extents_);
    EXPECT_TRUE(chase.ok()) << chase.status().ToString();
    return chase.ok() ? std::move(chase).value() : Relation();
  }

 private:
  Scenario s_;
  Database extents_;
};

TEST(CertainProperties, CompleteRoutesEqualDirectWhereAnEquivalentExists) {
  // Extents materialized from the base D are exactly views(D). When an
  // equivalent rewriting r exists, every possible world D' has
  // q(D') = r(views(D')) ⊇ r(views(D)) = q(D), so the certain answers are
  // q(D): every engine's complete route must return the direct rows.
  int equivalent = 0;
  for (const GeneratedScenarioSpec& spec : CompletenessSpecs()) {
    SCOPED_TRACE(SpecLabel(spec));
    auto scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    GeneratedProblem problem(std::move(scenario).value());
    if (!problem.Answer(AnswerRoute::kCompleteRewriting, "lmss").exact) {
      continue;
    }
    ++equivalent;
    Relation direct = problem.Answer(AnswerRoute::kDirect).result;
    for (const std::string& engine : EngineNames()) {
      Relation complete =
          problem.Answer(AnswerRoute::kCompleteRewriting, engine).result;
      EXPECT_TRUE(Relation::SameSet(direct, complete))
          << engine << ": " << complete.size() << " rows, direct has "
          << direct.size();
    }
  }
  // Every guarantee_equivalent problem has one, and some others do too.
  EXPECT_GT(equivalent, 100);
}

TEST(CertainProperties, CompleteRoutesMatchTheChase) {
  // The chase is the certain-answer semantics for comparison-free views.
  // MiniCon's union is maximally contained, and inverse rules compute the
  // certain answers: both must equal it. Bucket's union is sound but not
  // always maximal (seeds 12, 54 and 55 of the answer_cold shape lose
  // rows), so it is held to a subset.
  for (const GeneratedScenarioSpec& spec : CompletenessSpecs()) {
    SCOPED_TRACE(SpecLabel(spec));
    auto scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    GeneratedProblem problem(std::move(scenario).value());
    Relation chase = problem.Chase();
    Relation minicon =
        problem.Answer(AnswerRoute::kCompleteRewriting, "minicon").result;
    EXPECT_TRUE(Relation::SameSet(chase, minicon))
        << "minicon: " << minicon.size() << " rows, the chase has "
        << chase.size();
    Relation inverse = problem.Answer(AnswerRoute::kInverseRules).result;
    EXPECT_TRUE(Relation::SameSet(chase, inverse))
        << "inverse rules: " << inverse.size() << " rows, the chase has "
        << chase.size();
    Relation bucket =
        problem.Answer(AnswerRoute::kCompleteRewriting, "bucket").result;
    for (const auto& row : bucket.Rows()) {
      EXPECT_TRUE(chase.Contains(row)) << "bucket returned an uncertain row";
    }
  }
}

}  // namespace
}  // namespace aqv
