#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/query.h"
#include "cq/substitution.h"
#include "testing/reference.h"

namespace aqv {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }
};

TEST_F(QueryTest, HeadVarsInOrderOfAppearance) {
  Query q = Parse("q(Y, X, Y) :- r(X, Y).");
  std::vector<VarId> hv = q.HeadVars();
  ASSERT_EQ(hv.size(), 2u);
  EXPECT_EQ(q.var_name(hv[0]), "Y");
  EXPECT_EQ(q.var_name(hv[1]), "X");
}

TEST_F(QueryTest, DistinguishedMask) {
  Query q = Parse("q(X) :- r(X, Y), s(Y, Z).");
  auto mask = q.DistinguishedMask();
  int count = 0;
  for (bool b : mask) count += b;
  EXPECT_EQ(count, 1);
}

TEST_F(QueryTest, VarOccurrences) {
  Query q = Parse("q(X) :- r(X, Y), s(Y, Z), t(X).");
  auto occ = q.VarOccurrences();
  // X occurs in atoms 0 and 2; Y in 0 and 1; Z in 1.
  EXPECT_EQ(occ[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(occ[1], (std::vector<int>{0, 1}));
  EXPECT_EQ(occ[2], (std::vector<int>{1}));
}

TEST_F(QueryTest, RemoveBodyAtom) {
  Query q = Parse("q(X) :- r(X, Y), s(Y, Z), t(X).");
  q.RemoveBodyAtom(1);
  ASSERT_EQ(q.body().size(), 2u);
  EXPECT_EQ(cat_.pred(q.body()[1].pred).name, "t");
}

// A query's fingerprint is its GlobalCanonicalEncoding: equal exactly for
// copies up to variable renaming, body order and duplicate atoms.
TEST_F(QueryTest, FingerprintInvariantUnderRenaming) {
  Query a = Parse("q(X, Y) :- r(X, Z), s(Z, Y).");
  Query b = Parse("q(U, V) :- s(W, V), r(U, W).");  // reordered + renamed
  EXPECT_EQ(GlobalCanonicalEncoding(a), GlobalCanonicalEncoding(b));
}

TEST_F(QueryTest, FingerprintSeparatesHeadPermutation) {
  // Same head predicate: only the argument order distinguishes them.
  Query a = Parse("qperm(X, Y) :- r(X, Y).");
  Query b = Parse("qperm(Y, X) :- r(X, Y).");
  EXPECT_NE(GlobalCanonicalEncoding(a), GlobalCanonicalEncoding(b));
}

TEST_F(QueryTest, FingerprintSeparatesStructures) {
  // Same head: only the body distinguishes them.
  Query a = Parse("qe(X) :- r(X, Y), r(Y, X).");
  Query b = Parse("qe(X) :- r(X, Y), r(X, Y).");
  EXPECT_NE(GlobalCanonicalEncoding(a), GlobalCanonicalEncoding(b));
}

TEST_F(QueryTest, FingerprintSeesComparisons) {
  // Same head and atoms: only the comparison distinguishes them.
  Query a = Parse("qg(X) :- r(X, Y), X < 3.");
  Query b = Parse("qg(X) :- r(X, Y), Y < 3.");
  EXPECT_NE(GlobalCanonicalEncoding(a), GlobalCanonicalEncoding(b));
}

TEST_F(QueryTest, FingerprintCollapsesDuplicateAtomsAndUnusedVars) {
  Query a = Parse("qj(X) :- r(X, Y), r(X, Y).");
  Query b = Parse("qj(X) :- r(X, Y).");
  EXPECT_EQ(GlobalCanonicalEncoding(a), GlobalCanonicalEncoding(b));
  Query unused = b;
  unused.AddVariable("Unused");
  EXPECT_EQ(GlobalCanonicalEncoding(unused), GlobalCanonicalEncoding(b));
}

TEST_F(QueryTest, ValidateRejectsArityTamper) {
  Query q = Parse("q(X) :- r(X, Y).");
  Query broken = q;
  Atom bad = q.body()[0];
  bad.args.pop_back();
  broken.RemoveBodyAtom(0);
  broken.AddBodyAtom(bad);
  EXPECT_FALSE(broken.Validate().ok());
}

TEST_F(QueryTest, UnionToStringListsDisjuncts) {
  UnionQuery u;
  u.disjuncts.push_back(Parse("q(X) :- a(X)."));
  u.disjuncts.push_back(Parse("q(X) :- b(X)."));
  std::string s = u.ToString();
  EXPECT_NE(s.find("a(X)"), std::string::npos);
  EXPECT_NE(s.find("b(X)"), std::string::npos);
}

TEST_F(QueryTest, SubstitutionBindAndRollback) {
  Substitution s(3);
  EXPECT_FALSE(s.IsBound(0));
  size_t cp = s.Checkpoint();
  s.Bind(0, Term::Var(7));
  EXPECT_TRUE(s.IsBound(0));
  EXPECT_TRUE(s.BindOrCheck(0, Term::Var(7)));
  EXPECT_FALSE(s.BindOrCheck(0, Term::Var(8)));
  s.Rollback(cp);
  EXPECT_FALSE(s.IsBound(0));
}

TEST_F(QueryTest, SubstitutionApplyToAtom) {
  Query q = Parse("q(X) :- r(X, Y).");
  Substitution s(q.num_vars());
  s.Bind(0, Term::Const(cat_.InternConstant("9")));
  Atom img = s.ApplyToAtom(q.body()[0]);
  EXPECT_TRUE(img.args[0].is_const());
  EXPECT_TRUE(img.args[1].is_var());  // unbound maps to itself
}

TEST_F(QueryTest, VarImporterFreshensExistentials) {
  Query src = Parse("v(X) :- r(X, Y).");
  Query dst(&cat_);
  VarId a = dst.AddVariable("A");
  VarImporter imp(src, &dst, "i_");
  imp.Preset(0, Term::Var(a));  // X -> A
  Atom img = imp.ImportAtom(src.body()[0]);
  EXPECT_EQ(img.args[0], Term::Var(a));
  EXPECT_TRUE(img.args[1].is_var());
  EXPECT_NE(img.args[1], Term::Var(a));
  EXPECT_EQ(dst.num_vars(), 2);  // A plus imported Y
}

TEST_F(QueryTest, RenameVariablesKeepsStructure) {
  Query q = Parse("q(X) :- r(X, Y), X < 2.");
  Query r = RenameVariables(q, "z");
  EXPECT_EQ(r.num_vars(), q.num_vars());
  EXPECT_EQ(r.body(), q.body());
  EXPECT_EQ(r.var_name(0), "z0");
}

TEST_F(QueryTest, FreezeQueryGroundsEverything) {
  Query q = Parse("q(X) :- r(X, Y), s(Y, 3).");
  FrozenQuery fz = FreezeQuery(q, &cat_);
  EXPECT_EQ(fz.var_to_const.size(), 2u);
  for (const Atom& a : fz.frozen.body()) {
    for (Term t : a.args) EXPECT_TRUE(t.is_const());
  }
  for (Term t : fz.frozen.head().args) EXPECT_TRUE(t.is_const());
  // Distinct variables freeze to distinct constants.
  EXPECT_NE(fz.var_to_const[0], fz.var_to_const[1]);
}

TEST_F(QueryTest, FreezeTwiceYieldsDifferentConstants) {
  Query q = Parse("q(X) :- r(X).");
  FrozenQuery a = FreezeQuery(q, &cat_);
  FrozenQuery b = FreezeQuery(q, &cat_);
  EXPECT_NE(a.var_to_const[0], b.var_to_const[0]);
}

}  // namespace
}  // namespace aqv
