#include <gtest/gtest.h>

#include "containment/containment.h"
#include "cq/parser.h"
#include "rewriting/bucket.h"
#include "rewriting/minicon.h"
#include "views/expansion.h"

namespace aqv {
namespace {

class MiniConTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  MiniConResult Run(const Query& q, const ViewSet& vs,
                    MiniConOptions opts = {}) {
    auto r = MiniConRewrite(q, vs, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  void CheckSound(const Query& q, const ViewSet& vs,
                  const UnionQuery& rewritings) {
    for (const Query& rw : rewritings.disjuncts) {
      auto e = ExpandRewriting(rw, vs);
      ASSERT_TRUE(e.ok());
      ASSERT_TRUE(e.value().satisfiable);
      auto sub = IsContainedIn(e.value().query, q);
      ASSERT_TRUE(sub.ok());
      EXPECT_TRUE(sub.value()) << rw.ToString() << " expands to "
                               << e.value().query.ToString();
    }
  }

  // The headline MiniCon == Bucket property: both unions are maximally
  // contained, hence mutually contained (comparing expansions).
  void CheckMatchesBucket(const Query& q, const ViewSet& vs) {
    MiniConResult mc = Run(q, vs);
    auto bk = BucketRewrite(q, vs);
    ASSERT_TRUE(bk.ok()) << bk.status().ToString();
    auto mc_exp = ExpandUnion(mc.rewritings, vs);
    auto bk_exp = ExpandUnion(bk.value().rewritings, vs);
    ASSERT_TRUE(mc_exp.ok());
    ASSERT_TRUE(bk_exp.ok());
    if (mc_exp.value().empty() && bk_exp.value().empty()) return;
    ASSERT_FALSE(mc_exp.value().empty());
    ASSERT_FALSE(bk_exp.value().empty());
    auto fwd = UnionIsContainedInUnion(mc_exp.value(), bk_exp.value());
    auto bwd = UnionIsContainedInUnion(bk_exp.value(), mc_exp.value());
    ASSERT_TRUE(fwd.ok());
    ASSERT_TRUE(bwd.ok());
    EXPECT_TRUE(fwd.value()) << "MiniCon union not within bucket union";
    EXPECT_TRUE(bwd.value()) << "Bucket union not within MiniCon union";
  }
};

TEST_F(MiniConTest, SingleViewSingleMcd) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  MiniConResult res = Run(q, vs);
  EXPECT_EQ(res.mcds.size(), 1u);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, HiddenJoinVarForcesMultiSubgoalMcd) {
  // Y is existential in the view, so an MCD seeded at e must swallow f too.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A, C) :- e(A, B), f(B, C).");
  MiniConResult res = Run(q, vs);
  ASSERT_EQ(res.mcds.size(), 1u);
  EXPECT_EQ(res.mcds[0].covered, (std::vector<int>{0, 1}));
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, UncoverableForcedSubgoalKillsMcd) {
  // The view exposes only e; the closure needs f but the view has none.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A) :- e(A, B).");
  MiniConResult res = Run(q, vs);
  EXPECT_TRUE(res.mcds.empty());
  EXPECT_TRUE(res.rewritings.empty());
}

TEST_F(MiniConTest, DistinguishedJoinVarKeepsMcdsSmall) {
  // Y distinguished in both views: two single-subgoal MCDs suffice.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views("v(A, B) :- e(A, B).\nw(B, C) :- f(B, C).");
  MiniConResult res = Run(q, vs);
  EXPECT_EQ(res.mcds.size(), 2u);
  for (const auto& mcd : res.mcds) {
    EXPECT_EQ(mcd.covered.size(), 1u);
  }
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, DisjointnessPreventsOverlappingCombinations) {
  // Two views both covering both subgoals: combinations are single-MCD.
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "v(A, C) :- e(A, B), f(B, C).\n"
      "w(A, C) :- e(A, B), f(B, C).");
  MiniConResult res = Run(q, vs);
  EXPECT_EQ(res.mcds.size(), 2u);
  EXPECT_EQ(res.rewritings.size(), 2);
  for (const Query& rw : res.rewritings.disjuncts) {
    EXPECT_EQ(rw.body().size(), 1u);
  }
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, HeadVarOnExistentialViewPositionRejected) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("v(A) :- r(A, B).");
  MiniConResult res = Run(q, vs);
  EXPECT_TRUE(res.mcds.empty());
}

TEST_F(MiniConTest, MatchesBucketOnChain) {
  Query q = Parse("q(X, W) :- e(X, Y), f(Y, Z), g(Z, W).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B).\n"
      "v2(B, C) :- f(B, C).\n"
      "v3(C, D) :- g(C, D).\n"
      "v4(A, C) :- e(A, B), f(B, C).");
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, MatchesBucketWithPartialViews) {
  Query q = Parse("q(X) :- e(X, Y), t(Y).");
  ViewSet vs = Views(
      "v1(A, B) :- e(A, B).\n"
      "v2(B) :- t(B).\n"
      "v3(A) :- e(A, B), t(B).");
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, MatchesBucketWhenNothingWorks) {
  Query q = Parse("q(X) :- e(X, Y), u(Y).");
  ViewSet vs = Views("v(A, B) :- e(A, B).");
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, MatchesBucketOnStar) {
  Query q = Parse("q(L1, L2, L3) :- s1(C, L1), s2(C, L2), s3(C, L3).");
  ViewSet vs = Views(
      "v12(C, A, B) :- s1(C, A), s2(C, B).\n"
      "v3(C, D) :- s3(C, D).\n"
      "v123(A, B, D) :- s1(C, A), s2(C, B), s3(C, D).");
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, SelfJoinMcds) {
  Query q = Parse("q(X) :- e(X, Y), e(Y, X).");
  ViewSet vs = Views("v(A, B) :- e(A, B).");
  MiniConResult res = Run(q, vs);
  // Two MCDs (one per subgoal), combination joins them.
  EXPECT_EQ(res.mcds.size(), 2u);
  ASSERT_GE(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, CombinationCapSurfaces) {
  Query q = Parse("q(X) :- e(X, Y).");
  ViewSet vs = Views("v(A, B) :- e(A, B).");
  MiniConOptions opts;
  opts.max_combinations = 0;
  auto r = MiniConRewrite(q, vs, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(MiniConTest, ComparisonQueryForcesVerification) {
  Query q = Parse("q(X) :- r(X, Y), X < 3.");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  MiniConResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, NoIllegalViewInternalUnification) {
  // Regression: closing an MCD must never merge two view variables when one
  // is existential — that demands an equality inside the view body that no
  // rewriting can enforce. With the two_hop view below, a buggy closure
  // produces q(X, X) :- two_hop(F, X), ... whose expansion is NOT contained
  // in q (found via examples/quickstart).
  Query q = Parse("q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).");
  ViewSet vs = Views(
      "safeedge(X, Y) :- edge(X, Y), checked(Y).\n"
      "ischecked(X) :- checked(X).\n"
      "twohop(X, Z) :- edge(X, Y), edge(Y, Z).");
  MiniConResult res = Run(q, vs);
  for (const auto& mcd : res.mcds) {
    EXPECT_NE(mcd.view->name(), "twohop")
        << "two_hop cannot legally cover any subgoal here";
  }
  CheckSound(q, vs, res.rewritings);
  CheckMatchesBucket(q, vs);
}

TEST_F(MiniConTest, LegalDistinguishedMergeStillWorks) {
  // Merging two *distinguished* view variables stays legal: the candidate
  // repeats the argument (v(X, X)) to enforce it.
  Query q = Parse("q(X) :- r(X, X).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  MiniConResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  const Query& rw = res.rewritings.disjuncts[0];
  ASSERT_EQ(rw.body().size(), 1u);
  EXPECT_EQ(rw.body()[0].args[0], rw.body()[0].args[1]);
  CheckSound(q, vs, res.rewritings);
}

TEST_F(MiniConTest, ExistentialPinnedToConstantRejected) {
  // Unifying the query's constant against an existential view position
  // would constrain the view internally: no MCD may form.
  Query q = Parse("q(X) :- r(X, 3).");
  ViewSet vs = Views("vh(A) :- r(A, B).");
  MiniConResult res = Run(q, vs);
  EXPECT_TRUE(res.mcds.empty());
  EXPECT_TRUE(res.rewritings.empty());
}

TEST_F(MiniConTest, ConstantsInQueryAndView) {
  Query q = Parse("q(X) :- r(X, 3), s(X).");
  ViewSet vs = Views("v(A) :- r(A, 3).\nw(A) :- s(A).");
  MiniConResult res = Run(q, vs);
  ASSERT_EQ(res.rewritings.size(), 1);
  CheckSound(q, vs, res.rewritings);
  CheckMatchesBucket(q, vs);
}

}  // namespace
}  // namespace aqv
