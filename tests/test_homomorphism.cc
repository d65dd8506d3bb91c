#include <gtest/gtest.h>

#include <string>
#include <vector>

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

  /// Every mapping ForEachHomomorphism visits, in order, as "X->A Y->B".
  /// `to` must be constant-free, so every variable maps to a variable.
  std::vector<std::string> Mappings(const Query& from, const Query& to,
                                    int64_t* visits) {
    std::vector<std::string> out;
    auto r = ForEachHomomorphism(from, to, {}, [&](const Substitution& s) {
      std::string line;
      for (int v = 0; v < from.num_vars(); ++v) {
        if (v > 0) line += " ";
        line += from.var_name(v) + "->" + to.var_name(s.Get(v).var());
      }
      out.push_back(line);
      return true;
    });
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    *visits = r.ok() ? *r : -1;
    return out;
  }

  /// Runs the full enumeration under `budget`.
  Status EnumerateWithin(const Query& from, const Query& to,
                         uint64_t budget) {
    HomSearchOptions opts;
    opts.node_budget = budget;
    return ForEachHomomorphism(from, to, opts,
                               [](const Substitution&) { return true; })
        .status();
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

// The three tests below pin the search's candidate order and node
// accounting: each value was read from the search as it indexed target
// atoms by catalog predicate, so an index that reorders candidates or
// counts nodes differently fails them.

TEST_F(HomTest, SelfJoinEnumerationOrderOverInterleavedTarget) {
  Query from = Parse("q() :- e(X, Y), e(Y, Z), e(Z, W).");
  Query to = Parse(
      "q() :- e(A, B), f(A, B), e(B, C), f(B, C), e(C, A), f(C, A), "
      "e(B, B).");
  int64_t visits = 0;
  std::vector<std::string> expected = {
      "X->A Y->B Z->C W->A", "X->A Y->B Z->B W->C", "X->A Y->B Z->B W->B",
      "X->B Y->C Z->A W->B", "X->C Y->A Z->B W->C", "X->C Y->A Z->B W->B",
      "X->B Y->B Z->C W->A", "X->B Y->B Z->B W->C", "X->B Y->B Z->B W->B"};
  EXPECT_EQ(Mappings(from, to, &visits), expected);
  EXPECT_EQ(visits, 9);
}

TEST_F(HomTest, SmallestCompletingNodeBudget) {
  Query from = Parse("q() :- e(X, Y), e(Y, Z), e(Z, W).");
  Query to = Parse(
      "q() :- e(A, B), f(A, B), e(B, C), f(B, C), e(C, A), f(C, A), "
      "e(B, B).");
  EXPECT_TRUE(EnumerateWithin(from, to, 20).ok());
  Status short_by_one = EnumerateWithin(from, to, 19);
  EXPECT_EQ(short_by_one.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(short_by_one.message(),
            "homomorphism search exceeded node budget of 19");
  // The first mapping is reached at the fourth node.
  HomSearchOptions opts;
  opts.node_budget = 4;
  EXPECT_TRUE(FindHomomorphism(from, to, opts).ok());
  opts.node_budget = 3;
  EXPECT_EQ(FindHomomorphism(from, to, opts).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(HomTest, MissingTargetPredicateFailsAtTheRoot) {
  // No target atom has t, so the fail-first choice picks t(Z) at the root
  // and the search ends there: one node, no mapping.
  Query from = Parse("q() :- r(X, Y), r(Y, Z), t(Z).");
  Query to = Parse("q() :- r(A, B), s(B, C), r(B, C).");
  int64_t visits = -1;
  EXPECT_TRUE(Mappings(from, to, &visits).empty());
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(EnumerateWithin(from, to, 1).ok());
  EXPECT_FALSE(Hom(from, to));
}

TEST_F(HomTest, SpanSearchReadsOnlyItsPrefixOfTheBuffer) {
  // A span covers the first body_size atoms of a buffer; the atoms past it
  // are not part of the query.
  Query from = Parse("q(X) :- e(X, Y), f(Y, X).");
  Query to = Parse("q(A) :- e(A, B), g(B), f(B, A).");
  const AtomSpan from_span = AtomSpan::Of(from);
  const AtomSpan whole = AtomSpan::Of(to);
  const AtomSpan prefix{&to.head(), to.body().data(), 2, to.num_vars()};
  Substitution sub(0);
  auto r = FindHomomorphism(from_span, whole, {}, &sub);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_EQ(sub.Get(1), Term::Var(1));  // Y -> B
  EXPECT_EQ(r.value(), Hom(from, to));
  r = FindHomomorphism(from_span, prefix);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());  // f(B, A) lies past the prefix
}

}  // namespace
}  // namespace aqv
