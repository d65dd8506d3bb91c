#include <gtest/gtest.h>

#include "containment/homomorphism.h"
#include "cq/parser.h"

namespace aqv {
namespace {

class HomTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  bool Hom(const Query& from, const Query& to) {
    auto r = FindHomomorphism(from, to);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value();
  }
};

TEST_F(HomTest, IdentityAlwaysExists) {
  Query q = Parse("q(X, Y) :- r(X, Z), s(Z, Y).");
  EXPECT_TRUE(Hom(q, q));
}

TEST_F(HomTest, CollapsingMapping) {
  // path-2 maps into a self-loop.
  Query path = Parse("p(X) :- e(X, Y), e(Y, Z).");
  Query loop = Parse("p(A) :- e(A, A).");
  EXPECT_TRUE(Hom(path, loop));
  EXPECT_FALSE(Hom(loop, path));
}

TEST_F(HomTest, HeadConstraintBlocksOtherwiseValidMapping) {
  Query from = Parse("q(X) :- e(X, Y).");
  Query to = Parse("q(B) :- e(A, B).");
  // Body-wise X->A works, but the head forces X->B which has no outgoing e.
  EXPECT_FALSE(Hom(from, to));
  HomSearchOptions opts;
  opts.map_head = false;
  auto r = FindHomomorphism(from, to, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST_F(HomTest, ConstantsMustMatchExactly) {
  Query from = Parse("q(X) :- r(X, 3).");
  Query to1 = Parse("q(A) :- r(A, 3).");
  Query to2 = Parse("q(A) :- r(A, 4).");
  Query to3 = Parse("q(A) :- r(A, B).");
  EXPECT_TRUE(Hom(from, to1));
  EXPECT_FALSE(Hom(from, to2));
  EXPECT_FALSE(Hom(from, to3));  // constant cannot map to a variable
}

TEST_F(HomTest, VariableCanMapToConstant) {
  Query from = Parse("q(X) :- r(X, Y).");
  Query to = Parse("q(A) :- r(A, 3).");
  EXPECT_TRUE(Hom(from, to));
}

TEST_F(HomTest, ArityZeroHeads) {
  Query from = Parse("q() :- r(X, Y).");
  Query to = Parse("q() :- r(A, B), s(B).");
  EXPECT_TRUE(Hom(from, to));
}

TEST_F(HomTest, HeadArityMismatchMeansNoMapping) {
  Query from = Parse("qa(X) :- r(X, Y).");
  Query to = Parse("qb(A, B) :- r(A, B).");
  EXPECT_FALSE(Hom(from, to));
}

TEST_F(HomTest, RepeatedVariablesConstrain) {
  Query from = Parse("q() :- r(X, X).");
  Query to1 = Parse("q() :- r(A, A).");
  Query to2 = Parse("q() :- r(A, B).");
  EXPECT_TRUE(Hom(from, to1));
  EXPECT_FALSE(Hom(from, to2));
}

TEST_F(HomTest, SubstitutionOutputIsCorrect) {
  Query from = Parse("q(X) :- r(X, Y).");
  Query to = Parse("q(A) :- r(A, 5), r(A, 6).");
  Substitution sub(0);
  auto r = FindHomomorphism(from, to, {}, &sub);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value());
  ASSERT_EQ(sub.num_source_vars(), from.num_vars());
  EXPECT_EQ(sub.Get(0), Term::Var(0));  // X -> A
  EXPECT_TRUE(sub.Get(1).is_const());   // Y -> 5 or 6
}

TEST_F(HomTest, ForEachEnumeratesAllMappings) {
  Query from = Parse("q() :- r(X).");
  Query to = Parse("q() :- r(A), r(B), r(C).");
  int count = 0;
  auto r = ForEachHomomorphism(from, to, {},
                               [&](const Substitution&) {
                                 ++count;
                                 return true;
                               });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(r.value(), 3);
}

TEST_F(HomTest, ForEachEarlyStop) {
  Query from = Parse("q() :- r(X).");
  Query to = Parse("q() :- r(A), r(B), r(C).");
  int count = 0;
  auto r = ForEachHomomorphism(from, to, {},
                               [&](const Substitution&) {
                                 ++count;
                                 return count < 2;
                               });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count, 2);
}

TEST_F(HomTest, DistinctMappingsOfTwoFreeAtoms) {
  Query from = Parse("q() :- r(X), s(Y).");
  Query to = Parse("q() :- r(A), r(B), s(C).");
  auto r = ForEachHomomorphism(from, to, {},
                               [&](const Substitution&) { return true; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 2);  // X in {A,B}, Y = C
}

TEST_F(HomTest, BudgetExhaustionSurfaces) {
  // A hard instance with a tiny budget must fail loudly, not hang.
  std::string from_body, to_body;
  for (int i = 0; i < 8; ++i) {
    from_body += (i ? ", " : "") + std::string("e(X") + std::to_string(i) +
                 ", X" + std::to_string(i + 1) + ")";
  }
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      if (i != j) {
        to_body += (to_body.empty() ? "" : ", ") + std::string("e(A") +
                   std::to_string(i) + ", A" + std::to_string(j) + ")";
      }
    }
  }
  Query from = Parse("q() :- " + from_body + ".");
  Query to = Parse("q() :- " + to_body + ".");
  HomSearchOptions opts;
  opts.node_budget = 3;
  auto r = ForEachHomomorphism(from, to, opts,
                               [](const Substitution&) { return true; });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(HomTest, NoTargetAtomsOfPredicate) {
  Query from = Parse("q() :- r(X), t(X).");
  Query to = Parse("q() :- r(A).");
  EXPECT_FALSE(Hom(from, to));
}

}  // namespace
}  // namespace aqv
