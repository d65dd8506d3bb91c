#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "containment/containment.h"
#include "containment/oracle.h"
#include "cq/parser.h"
#include "rewriting/engine.h"
#include "testing/rewrite_scenario.h"
#include "util/rng.h"
#include "views/expansion.h"
#include "workload/generators.h"
#include "workload/registry.h"

namespace aqv {
namespace {

/// The unified engine layer: every strategy behind one request/response
/// API, any scenario driving any engine by name, and the shared
/// ContainmentOracle changing performance but never results.
class EngineTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  static RewriteRequest Request(const Query& q, const ViewSet& views,
                                ContainmentOracle* oracle = nullptr) {
    RewriteRequest request;
    request.query.disjuncts.push_back(q);
    request.views = &views;
    request.options.oracle = oracle;
    return request;
  }

  static RewriteResponse Run(const std::string& engine,
                             const RewriteRequest& request) {
    auto r = RunEngine(engine, request);
    EXPECT_TRUE(r.ok()) << engine << ": " << r.status().ToString();
    return std::move(r).value();
  }

  /// Both unions maximally contained => mutually contained (on expansions).
  void ExpectEquivalentUnions(const UnionQuery& a, const UnionQuery& b,
                              const ViewSet& views, const std::string& what) {
    auto ea = ExpandUnion(a, views);
    auto eb = ExpandUnion(b, views);
    ASSERT_TRUE(ea.ok() && eb.ok()) << what;
    if (ea.value().empty() && eb.value().empty()) return;
    auto fwd = UnionIsContainedInUnion(ea.value(), eb.value());
    auto bwd = UnionIsContainedInUnion(eb.value(), ea.value());
    ASSERT_TRUE(fwd.ok() && bwd.ok()) << what;
    EXPECT_TRUE(fwd.value()) << what << ": first union not within second";
    EXPECT_TRUE(bwd.value()) << what << ": second union not within first";
  }
};

TEST_F(EngineTest, RegistryListsAllFourEngines) {
  const std::vector<std::string>& names = EngineNames();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_EQ(engine.value()->name(), name);
  }
}

TEST_F(EngineTest, UnknownEngineIsNotFound) {
  auto r = MakeEngine("gqr");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, CqEnginesRejectUnionRequests) {
  Query a = Parse("q(X) :- r(X, Y).");
  Query b = Parse("q(X) :- s(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  RewriteRequest request = Request(a, vs);
  request.query.disjuncts.push_back(b);
  for (const char* name : {"lmss", "bucket", "minicon"}) {
    auto r = RunEngine(name, request);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << name;
  }
  EXPECT_TRUE(RunEngine("ucq", request).ok());
}

TEST_F(EngineTest, LmssEngineFindsWitnessThatVerifies) {
  Query q = Parse("q(X, Z) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("v(A, B) :- e(A, B).");
  RewriteResponse resp = Run("lmss", Request(q, vs));
  ASSERT_TRUE(resp.equivalent_exists);
  ASSERT_FALSE(resp.rewritings.empty());
  auto exp = ExpandRewriting(resp.rewritings.disjuncts.front(), vs);
  ASSERT_TRUE(exp.ok());
  ASSERT_TRUE(exp.value().satisfiable);
  auto equiv = AreEquivalent(exp.value().query, q);
  ASSERT_TRUE(equiv.ok());
  EXPECT_TRUE(equiv.value());
}

TEST_F(EngineTest, BucketAndMiniConAgreeOnHandWrittenWorkload) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B)."
      "v2(A, B) :- f(A, B)."
      "v3(A, C) :- e(A, B), f(B, C).");
  RewriteResponse bucket = Run("bucket", Request(q, vs));
  RewriteResponse minicon = Run("minicon", Request(q, vs));
  EXPECT_FALSE(bucket.rewritings.empty());
  EXPECT_FALSE(minicon.rewritings.empty());
  ExpectEquivalentUnions(bucket.rewritings, minicon.rewritings, vs,
                         "hand-written");
}

TEST_F(EngineTest, AllEnginesRunEveryScenarioByName) {
  for (const std::string& scenario_name : ScenarioNames()) {
    auto scenario = MakeScenarioByName(scenario_name, /*seed=*/7,
                                       /*db_size=*/50);
    ASSERT_TRUE(scenario.ok()) << scenario_name;
    ContainmentOracle oracle;
    EngineOptions options;
    options.oracle = &oracle;
    for (const std::string& engine_name : EngineNames()) {
      auto resp =
          RewriteScenarioWithEngine(scenario.value(), engine_name, options);
      ASSERT_TRUE(resp.ok()) << scenario_name << "/" << engine_name << ": "
                             << resp.status().ToString();
      EXPECT_EQ(resp.value().engine, engine_name);
    }
    // Four engines over one scenario share containment work.
    EXPECT_GT(oracle.stats().hits, 0u) << scenario_name;
  }
}

TEST_F(EngineTest, BucketAndMiniConAgreeOnScenarios) {
  for (const std::string& scenario_name : ScenarioNames()) {
    auto scenario = MakeScenarioByName(scenario_name, /*seed=*/11,
                                       /*db_size=*/40);
    ASSERT_TRUE(scenario.ok()) << scenario_name;
    EngineOptions options;
    auto bucket =
        RewriteScenarioWithEngine(scenario.value(), "bucket", options);
    auto minicon =
        RewriteScenarioWithEngine(scenario.value(), "minicon", options);
    ASSERT_TRUE(bucket.ok() && minicon.ok()) << scenario_name;
    ExpectEquivalentUnions(bucket.value().rewritings,
                           minicon.value().rewritings,
                           scenario.value().views, scenario_name);
  }
}

TEST_F(EngineTest, CrossEngineAgreementOnRandomChainWorkloads) {
  // Property sweep: Bucket and MiniCon produce equivalent
  // maximally-contained unions, and when LMSS finds an equivalent
  // rewriting its witness expansion really is equivalent to q.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Catalog cat;
    Rng rng(seed);
    ChainQuerySpec qspec;
    qspec.length = 3 + static_cast<int>(seed % 3);
    Query q = MakeChainQuery(&cat, qspec).value();
    ChainViewSpec vspec;
    vspec.chain = qspec;
    vspec.num_views = 6;
    vspec.max_length = 3;
    ViewSet vs = MakeChainViews(&cat, &rng, vspec).value();

    ContainmentOracle oracle;
    RewriteRequest request = Request(q, vs, &oracle);
    RewriteResponse bucket = Run("bucket", request);
    RewriteResponse minicon = Run("minicon", request);
    ExpectEquivalentUnions(bucket.rewritings, minicon.rewritings, vs,
                           "chain seed " + std::to_string(seed));

    RewriteResponse lmss = Run("lmss", request);
    if (lmss.equivalent_exists) {
      ASSERT_FALSE(lmss.rewritings.empty());
      auto exp = ExpandRewriting(lmss.rewritings.disjuncts.front(), vs);
      ASSERT_TRUE(exp.ok());
      auto equiv = AreEquivalent(exp.value().query, q);
      ASSERT_TRUE(equiv.ok());
      EXPECT_TRUE(equiv.value()) << "seed " << seed;
    }
  }
}

TEST_F(EngineTest, OracleOnAndOffProduceIdenticalOutputs) {
  // The memoized oracle is a pure cache: every engine must emit exactly
  // the same rewritings with and without it.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Catalog cat;
    Rng rng(seed * 13);
    ChainQuerySpec qspec;
    qspec.length = 4;
    Query q = MakeChainQuery(&cat, qspec).value();
    ChainViewSpec vspec;
    vspec.chain = qspec;
    vspec.num_views = 5;
    ViewSet vs = MakeChainViews(&cat, &rng, vspec).value();

    for (const std::string& engine : EngineNames()) {
      ContainmentOracle oracle;
      RewriteResponse off = Run(engine, Request(q, vs));
      RewriteResponse on = Run(engine, Request(q, vs, &oracle));
      EXPECT_EQ(off.equivalent_exists, on.equivalent_exists)
          << engine << " seed " << seed;
      EXPECT_EQ(off.rewritings.ToString(), on.rewritings.ToString())
          << engine << " seed " << seed;
      EXPECT_EQ(off.stats.combinations, on.stats.combinations)
          << engine << " seed " << seed;
      EXPECT_EQ(on.stats.oracle.lookups(),
                on.stats.oracle.hits + on.stats.oracle.misses);
    }
  }
}

TEST_F(EngineTest, SharedOracleHitsAcrossRepeatedRequests) {
  Query q = Parse("q(X, Z) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("v(A, B) :- e(A, B).");
  ContainmentOracle oracle;
  RewriteRequest request = Request(q, vs, &oracle);
  RewriteResponse first = Run("lmss", request);
  OracleStats after_first = oracle.stats();
  EXPECT_GT(after_first.misses, 0u);
  RewriteResponse second = Run("lmss", request);
  // An identical request replays entirely from the cache.
  EXPECT_EQ(oracle.stats().misses, after_first.misses);
  EXPECT_GT(second.stats.oracle.hits, 0u);
  EXPECT_EQ(first.rewritings.ToString(), second.rewritings.ToString());
}

TEST_F(EngineTest, OracleCapacityBudgetSurfacesInStats) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B)."
      "v2(A, B) :- f(A, B)."
      "v3(A, C) :- e(A, B), f(B, C).");
  ContainmentOracle tiny(/*max_entries=*/1);
  RewriteResponse resp = Run("bucket", Request(q, vs, &tiny));
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_GT(resp.stats.oracle.capacity_rejects, 0u);
}

TEST_F(EngineTest, Over64SubgoalQueriesReturnUnimplemented) {
  // Regression for the covered_mask width limit, end to end through the
  // engine interface: a 70-subgoal (non-minimizable) query must surface
  // kUnimplemented from every CQ engine, never a silent wrong answer.
  std::string body;
  for (int i = 0; i < 70; ++i) {
    if (i) body += ", ";
    body += "g" + std::to_string(i) + "(X" + std::to_string(i) + ", X" +
            std::to_string(i + 1) + ")";
  }
  Query q = Parse("huge(X0) :- " + body + ".");
  ViewSet vs = Views("vh(A, B) :- g0(A, B).");
  for (const char* name : {"lmss", "bucket", "minicon", "ucq"}) {
    auto r = RunEngine(name, Request(q, vs));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented) << name;
  }
}

}  // namespace
}  // namespace aqv
