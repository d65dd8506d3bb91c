#include <gtest/gtest.h>

#include "containment/containment.h"
#include "cq/parser.h"
#include "rewriting/candidates.h"
#include "rewriting/pipeline.h"
#include "rewriting/two_space_unifier.h"

namespace aqv {
namespace {

class CandidatesTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
};

TEST_F(CandidatesTest, UnifierBasicPairs) {
  TwoSpaceUnifier u(2, 2);
  EXPECT_TRUE(u.UnifyPair(Term::Var(0), Term::Var(1)));  // X0 ~ Y1
  EXPECT_EQ(u.Find(u.NodeOfQVar(0)), u.Find(u.NodeOfVVar(1)));
  EXPECT_NE(u.Find(u.NodeOfQVar(1)), u.Find(u.NodeOfVVar(1)));
}

TEST_F(CandidatesTest, UnifierConstantPinning) {
  TwoSpaceUnifier u(1, 1);
  Term c3 = Term::Const(cat_.InternConstant("3"));
  Term c4 = Term::Const(cat_.InternConstant("4"));
  EXPECT_TRUE(u.UnifyPair(Term::Var(0), Term::Var(0)));
  EXPECT_TRUE(u.UnifyPair(c3, Term::Var(0)));  // pins the class to 3
  EXPECT_EQ(u.PinnedConst(u.NodeOfQVar(0)), c3);
  EXPECT_FALSE(u.UnifyPair(c4, Term::Var(0)));  // clash
}

TEST_F(CandidatesTest, UnifierConstConstMismatch) {
  TwoSpaceUnifier u(1, 1);
  Term c3 = Term::Const(cat_.InternConstant("3"));
  Term c4 = Term::Const(cat_.InternConstant("4"));
  EXPECT_TRUE(u.UnifyPair(c3, c3));
  EXPECT_FALSE(u.UnifyPair(c3, c4));
}

TEST_F(CandidatesTest, UnifierClassQueries) {
  TwoSpaceUnifier u(3, 2);
  EXPECT_TRUE(u.UnifyPair(Term::Var(0), Term::Var(0)));
  EXPECT_TRUE(u.UnifyPair(Term::Var(2), Term::Var(0)));
  std::vector<VarId> qv = u.QVarsInClass(u.NodeOfVVar(0));
  EXPECT_EQ(qv, (std::vector<VarId>{0, 2}));
  EXPECT_TRUE(u.ClassContainsVVar(u.NodeOfQVar(0), 0));
  EXPECT_FALSE(u.ClassContainsVVar(u.NodeOfQVar(1), 0));
}

TEST_F(CandidatesTest, CanonicalTuplesForIdentityView) {
  Query q = Parse("q(X) :- r(X, Y), s(Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool.value().size(), 1u);
  const ViewAtomCandidate& c = pool.value()[0];
  EXPECT_EQ(c.covered, (std::vector<int>{0}));
  EXPECT_EQ(c.atom.args[0], Term::Var(0));  // X
  EXPECT_EQ(c.atom.args[1], Term::Var(1));  // Y
  EXPECT_EQ(c.num_fresh, 0);
  EXPECT_TRUE(c.induced_equalities.empty());
}

TEST_F(CandidatesTest, MultipleHomomorphismsMultipleTuples) {
  Query q = Parse("q(X) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("ve(A, B) :- e(A, B).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().size(), 2u);  // (X,Y) and (Y,Z)
}

TEST_F(CandidatesTest, ViewSpanningTwoAtoms) {
  Query q = Parse("q(X, Z) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("vp(A, C) :- e(A, B), e(B, C).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  ASSERT_EQ(pool.value().size(), 1u);
  EXPECT_EQ(pool.value()[0].covered, (std::vector<int>{0, 1}));
  EXPECT_EQ(pool.value()[0].covered_mask, 0b11u);
}

TEST_F(CandidatesTest, SelfJoinViewFoldsOntoLoop) {
  Query q = Parse("q(X) :- e(X, X).");
  ViewSet vs = Views("v2(A, C) :- e(A, B), e(B, C).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  // Single hom: A,B,C all -> X.
  ASSERT_EQ(pool.value().size(), 1u);
  EXPECT_EQ(pool.value()[0].atom.args[0], Term::Var(0));
  EXPECT_EQ(pool.value()[0].atom.args[1], Term::Var(0));
}

TEST_F(CandidatesTest, NoHomNoTuples) {
  Query q = Parse("q(X) :- e(X, Y).");
  ViewSet vs = Views("vt(A) :- t(A).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  EXPECT_TRUE(pool.value().empty());
}

TEST_F(CandidatesTest, PoolCapSurfaces) {
  Query q = Parse("q() :- e(X1, X2), e(X2, X3), e(X3, X1), e(X2, X1).");
  ViewSet vs = Views("vbig() :- e(A, B).");
  CandidateOptions opts;
  opts.max_candidates = 0;
  auto pool = CanonicalViewTuples(q, vs, opts);
  // Zero-cap always exhausts as soon as one candidate appears.
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CandidatesTest, BuildRewritingBasics) {
  Query q = Parse("q(X, Z) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("vv(A, B) :- e(A, B).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  ASSERT_EQ(pool.value().size(), 2u);
  std::vector<const ViewAtomCandidate*> picks{&pool.value()[0],
                                              &pool.value()[1]};
  auto rw = BuildRewriting(q, picks, false);
  ASSERT_TRUE(rw.has_value());
  EXPECT_EQ(rw->body().size(), 2u);
  EXPECT_TRUE(rw->Validate().ok());
  EXPECT_TRUE(UsesOnlyViews(*rw, vs));
}

TEST_F(CandidatesTest, BuildRewritingRejectsUnboundHeadVar) {
  Query q = Parse("q(X, Z) :- e(X, Y), e(Y, Z).");
  ViewSet vs = Views("vw(A, B) :- e(A, B).");
  auto pool = CanonicalViewTuples(q, vs);
  ASSERT_TRUE(pool.ok());
  // Only the first tuple: Z never appears in the body.
  std::vector<const ViewAtomCandidate*> picks{&pool.value()[0]};
  auto rw = BuildRewriting(q, picks, false);
  EXPECT_FALSE(rw.has_value());
}

TEST_F(CandidatesTest, InducedEqualityAppliesGlobally) {
  Query q = Parse("q(X, Y) :- r(X, Y), t(Y).");
  ViewSet vs = Views("vr(A) :- r(A, A).\nvt(B) :- t(B).");
  // Bucket-style candidate for subgoal r(X,Y) against r(A,A): forces X=Y.
  const View* vr = vs.FindByName("vr");
  TwoSpaceUnifier u(q.num_vars(), vr->definition.num_vars());
  ASSERT_TRUE(u.UnifyAtoms(q.body()[0], vr->definition.body()[0]));
  auto cand = MakeCandidateFromUnifier(q, *vr, u, {0}, true);
  ASSERT_TRUE(cand.has_value());
  ASSERT_EQ(cand->induced_equalities.size(), 1u);

  // Combine with vt coverage of t(Y).
  const View* vt = vs.FindByName("vt");
  TwoSpaceUnifier u2(q.num_vars(), vt->definition.num_vars());
  ASSERT_TRUE(u2.UnifyAtoms(q.body()[1], vt->definition.body()[0]));
  auto cand2 = MakeCandidateFromUnifier(q, *vt, u2, {1}, true);
  ASSERT_TRUE(cand2.has_value());

  std::vector<const ViewAtomCandidate*> picks{&*cand, &*cand2};
  auto rw = BuildRewriting(q, picks, false);
  ASSERT_TRUE(rw.has_value());
  // X and Y collapse: head is q(W, W) for a single variable W.
  EXPECT_EQ(rw->head().args[0], rw->head().args[1]);
}

TEST_F(CandidatesTest, CandidateRequiresDistinguishedExposure) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("vh(A) :- r(A, B).");  // hides the second column
  const View* vh = vs.FindByName("vh");
  TwoSpaceUnifier u(q.num_vars(), vh->definition.num_vars());
  ASSERT_TRUE(u.UnifyAtoms(q.body()[0], vh->definition.body()[0]));
  EXPECT_FALSE(MakeCandidateFromUnifier(q, *vh, u, {0}, true).has_value());
  // Without the exposure requirement a candidate forms, with a fresh var.
  auto loose = MakeCandidateFromUnifier(q, *vh, u, {0}, false);
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(loose->num_fresh, 0);  // head arg X exposed; Y simply not output
}

TEST_F(CandidatesTest, FreshVariableForUnconstrainedOutput) {
  Query q = Parse("q(X) :- r(X).");
  ViewSet vs = Views("vf(A, B) :- r(A), s(B).");
  const View* vf = vs.FindByName("vf");
  TwoSpaceUnifier u(q.num_vars(), vf->definition.num_vars());
  ASSERT_TRUE(u.UnifyAtoms(q.body()[0], vf->definition.body()[0]));
  auto cand = MakeCandidateFromUnifier(q, *vf, u, {0}, true);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->num_fresh, 1);  // B is a don't-care output
  EXPECT_EQ(cand->atom.args[0], Term::Var(0));
  EXPECT_EQ(cand->atom.args[1], Term::Var(q.num_vars() + 0));
}

TEST_F(CandidatesTest, QueryDeduperKeepsOneCopyPerIdentity) {
  QueryDeduper seen;
  EXPECT_TRUE(seen.Insert(Parse("q(X, Y) :- r(X, Z), s(Z, Y), Z < 3.")));
  // Renamed, reordered and duplicate-atom copies are duplicates.
  EXPECT_FALSE(seen.Insert(Parse("q(A, B) :- r(A, C), s(C, B), C < 3.")));
  EXPECT_FALSE(seen.Insert(Parse("q(X, Y) :- s(Z, Y), r(X, Z), Z < 3.")));
  EXPECT_FALSE(
      seen.Insert(Parse("q(X, Y) :- r(X, Z), s(Z, Y), r(X, Z), Z < 3.")));
  // A head permutation and a different comparison are new rewritings.
  EXPECT_TRUE(seen.Insert(Parse("q(Y, X) :- r(X, Z), s(Z, Y), Z < 3.")));
  EXPECT_TRUE(seen.Insert(Parse("q(X, Y) :- r(X, Z), s(Z, Y), Z <= 3.")));
  EXPECT_TRUE(seen.Insert(Parse("q(X, Y) :- r(X, Z), s(Z, Y), X < 3.")));
  EXPECT_FALSE(seen.Insert(Parse("q(X, Y) :- r(X, Z), s(Z, Y), X < 3.")));
}

}  // namespace
}  // namespace aqv
