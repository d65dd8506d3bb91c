/// Property tests for the evaluator against an independent reference: the
/// naive nested-loop evaluator of testing/reference.h, written from the
/// definition of a CQ's answer (backtrack over the body atoms, check every
/// comparison on the full binding, project the head, deduplicate). Across generated
/// scenarios, hand-written queries with constants, repeated variables and
/// comparisons, and randomized small queries, EvaluateQuery and
/// MaterializeViews must return exactly the reference's rows. Queries
/// whose variables die before the last join step (existential columns,
/// variables read only by a comparison or repeated inside one atom,
/// nullary and constant heads) check that the pipeline's live-variable
/// projection loses no answer. On top of that, re-evaluation with warm
/// indexes must change nothing but the index counters, and the
/// intermediate_row_cap must fire at exactly the pipeline's row count.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "eval/value.h"
#include "testing/reference.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

using Row = std::vector<Value>;

std::vector<Row> Reference(const Query& q, const Database& db) {
  std::set<Row> rows = NestedLoopEvaluate(q, db);
  return {rows.begin(), rows.end()};
}

std::vector<Row> SortedRows(const Relation& r) {
  std::vector<Row> rows = r.Rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// EvaluateQuery's rows, sorted, must be exactly the reference's. Returns
/// the reference's row count (0 on an evaluation error).
size_t ExpectMatchesReference(const Query& q, const Database& db,
                              const std::string& what) {
  Result<Relation> got = EvaluateQuery(q, db);
  EXPECT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  if (!got.ok()) return 0;
  std::vector<Row> expected = Reference(q, db);
  EXPECT_EQ(got->arity(), q.head().arity()) << what;
  EXPECT_EQ(SortedRows(*got), expected) << what << ": " << q.ToString();
  return expected.size();
}

/// MaterializeViews' extents must be the reference's rows, rule by rule
/// unioned per view predicate.
void ExpectExtentsMatchReference(const ViewSet& views, const Database& base) {
  Result<Database> extents = MaterializeViews(views, base);
  ASSERT_TRUE(extents.ok()) << extents.status().ToString();
  std::map<PredId, std::set<Row>> expected;
  for (const View& v : views.views()) {
    std::set<Row> rows = NestedLoopEvaluate(v.definition, base);
    expected[v.pred].insert(rows.begin(), rows.end());
  }
  for (const auto& [pred, rows] : expected) {
    const Relation* extent = extents->Find(pred);
    ASSERT_NE(extent, nullptr) << "no extent for pred " << pred;
    EXPECT_EQ(SortedRows(*extent), std::vector<Row>(rows.begin(), rows.end()))
        << "extent of pred " << pred;
  }
}

/// Bit-identical comparison: same rows in the same order (SameSet would
/// hide ordering divergence, which the determinism invariant forbids).
void ExpectBitIdentical(const Relation& a, const Relation& b,
                        const std::string& what) {
  ASSERT_EQ(a.arity(), b.arity()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.Rows(), b.Rows()) << what;
}

TEST(EvalProperties, MatchesNestedLoopReferenceAcrossGeneratedScenarios) {
  // >= 20 pinned seeds over varied generator knobs. Each scenario is
  // checked on two surfaces: the query over the hidden base, and full
  // view materialization (which exercises index reuse across view
  // definitions sharing base relations).
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    spec.num_predicates = 4 + static_cast<int>(seed % 5);
    spec.query_atoms = 2 + static_cast<int>(seed % 3);
    spec.num_views = 8 + static_cast<int>(seed % 7);
    spec.min_view_atoms = 1;
    spec.max_view_atoms = 3;
    spec.redundancy = (seed % 4) * 0.1;
    spec.noise_view_fraction = (seed % 3) * 0.1;
    spec.facts_per_predicate = 20 + static_cast<int>(seed % 13) * 5;
    spec.domain_size = 10 + static_cast<int>(seed % 17);
    spec.zipf_skew = (seed % 2) ? 0.9 : 0.0;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const Scenario& s = scenario.value();

    EvalStats cold_stats;
    auto cold = EvaluateQuery(s.query, s.base, {}, &cold_stats);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(SortedRows(*cold), Reference(s.query, s.base));

    // Re-evaluating with the caches warm must change nothing but the
    // hit/build counters.
    EvalStats warm_stats;
    auto warm = EvaluateQuery(s.query, s.base, {}, &warm_stats);
    ASSERT_TRUE(warm.ok());
    ExpectBitIdentical(*cold, *warm, "warm re-evaluation");
    EXPECT_EQ(warm_stats.intermediate_rows, cold_stats.intermediate_rows);
    EXPECT_EQ(warm_stats.probes, cold_stats.probes);
    EXPECT_EQ(warm_stats.index_builds, 0u);

    ExpectExtentsMatchReference(s.views, s.base);
  }
}

class EvalReferenceTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Database db_{&cat_};

  Query Parse(const std::string& text) {
    auto q = ParseQuery(text, &cat_);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    return std::move(q).value();
  }
  Value Sym(const std::string& name) {
    return SymbolicValue(cat_.InternConstant(name));
  }
  PredId Pred(const std::string& name, int arity) {
    return cat_.GetOrAddPredicate(name, arity).value();
  }
};

TEST_F(EvalReferenceTest, HandWrittenConstantsRepeatsAndComparisons) {
  PredId r = Pred("r", 2);
  PredId s = Pred("s", 3);
  PredId t = Pred("t", 1);
  for (Value a = 0; a < 6; ++a) {
    for (Value b = 0; b < 6; ++b) {
      if ((a + b) % 3 != 0) db_.Add(r, {a, b});
      if ((a * b) % 4 == 1) db_.Add(s, {a, b, a});
    }
    db_.Add(s, {a, a, 7});
    db_.Add(t, {a});
  }
  db_.Add(t, {Sym("alice")});
  db_.Add(r, {Sym("alice"), 2});
  db_.Add(r, {Sym("bob"), Sym("alice")});
  db_.Add(s, {Sym("alice"), Sym("alice"), Sym("alice")});
  db_.DedupAll();

  const char* queries[] = {
      // Constants in the body and in the head.
      "q(X) :- r(X, 2).",
      "q(X, 9) :- r(2, X).",
      "q(X) :- r(X, alice).",
      "q(Y) :- r(alice, Y), t(Y).",
      "q() :- r(1, 2).",
      "q() :- r(2, 1).",
      // Repeated variables within an atom and across atoms.
      "q(X) :- r(X, X).",
      "q(X, Z) :- s(X, X, Z).",
      "q(X) :- s(X, Y, X), r(Y, X).",
      "q(X, Y) :- r(X, Y), r(Y, X).",
      "q(X) :- s(X, X, X).",
      // Comparisons: numeric order, raw (in)equality, symbolic operands,
      // variable against variable, and constant against constant.
      "q(X, Y) :- r(X, Y), X < Y.",
      "q(X, Y) :- r(X, Y), Y <= X, X != 3.",
      "q(X) :- t(X), X < 100.",
      "q(X, Y) :- r(X, Y), t(Y), X = Y.",
      "q(X, Y) :- r(X, Y), X != Y, Y <= 2.",
      "q(X, Y) :- s(X, Y, Z), r(Z, Y), Z != X.",
      "q(X, Z) :- r(X, Y), r(Y, Z), X < Z, Y != 4.",
      "q(X) :- t(X), 1 < 2.",
      "q(X) :- t(X), 2 < 1.",
      // A cross product and an atom over an empty predicate.
      "q(X, Y) :- t(X), t(Y), X < Y.",
      "q(X) :- t(X), empty(X).",
  };
  Pred("empty", 1);
  int n = 0;
  int nonempty = 0;
  for (const char* text : queries) {
    // Each query gets its own head predicate: head arities differ.
    Query q = Parse("q" + std::to_string(n++) + std::string(text).substr(1));
    if (ExpectMatchesReference(q, db_, text) > 0) ++nonempty;
  }
  // Not vacuous: most of the cases have answers to get right.
  EXPECT_GE(nonempty, 15);
}

TEST_F(EvalReferenceTest, RandomSmallQueriesMatchReference) {
  // Random CQs over three small relations with random constants, repeated
  // variables and comparisons, against the reference.
  const int arity[] = {2, 3, 1};
  const char* name[] = {"a", "b", "c"};
  PredId preds[3];
  for (int p = 0; p < 3; ++p) preds[p] = Pred(name[p], arity[p]);
  Rng rng(20261019);
  for (int p = 0; p < 3; ++p) {
    for (int row = 0; row < 25; ++row) {
      std::vector<Value> values;
      for (int c = 0; c < arity[p]; ++c) {
        values.push_back(static_cast<Value>(rng.NextBounded(5)));
      }
      db_.Add(preds[p], values);
    }
  }
  db_.DedupAll();
  const char* ops[] = {"<", "<=", "=", "!="};
  int nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int atoms = 1 + static_cast<int>(rng.NextBounded(3));
    int vars = 1 + static_cast<int>(rng.NextBounded(4));
    std::string body;
    std::set<int> used;
    for (int i = 0; i < atoms; ++i) {
      int p = static_cast<int>(rng.NextBounded(3));
      body += std::string(i > 0 ? ", " : "") + name[p] + "(";
      for (int c = 0; c < arity[p]; ++c) {
        if (c > 0) body += ", ";
        if (rng.NextBounded(5) == 0) {
          body += std::to_string(rng.NextBounded(5));
        } else {
          int v = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(vars)));
          used.insert(v);
          body += "V" + std::to_string(v);
        }
      }
      body += ")";
    }
    std::vector<int> bound(used.begin(), used.end());
    std::string head;
    for (int v : bound) {
      if (rng.NextBounded(2) == 0) continue;
      head += std::string(head.empty() ? "" : ", ") + "V" + std::to_string(v);
    }
    if (!bound.empty()) {
      int comparisons = static_cast<int>(rng.NextBounded(3));
      for (int i = 0; i < comparisons; ++i) {
        auto operand = [&] {
          if (rng.NextBounded(4) == 0) return std::to_string(rng.NextBounded(5));
          return "V" + std::to_string(bound[rng.NextBounded(bound.size())]);
        };
        body += ", " + operand() + " " + ops[rng.NextBounded(4)] + " " + operand();
      }
    }
    std::string text =
        "q" + std::to_string(trial) + "(" + head + ") :- " + body + ".";
    Query q = Parse(text);
    if (ExpectMatchesReference(q, db_, text) > 0) ++nonempty;
  }
  EXPECT_GE(nonempty, 150) << "too few random queries have answers";
}

TEST_F(EvalReferenceTest, ProjectedVariablesLoseNoAnswer) {
  // A 3-atom chain a -> b -> c whose atoms each carry two existential
  // columns beside the join keys. Every join key fans out to at least 5
  // rows, and distinct existential pairs often map to the same next key,
  // so dropping dead variables collapses many binding rows.
  PredId a = Pred("a", 4);
  PredId b = Pred("b", 4);
  PredId c = Pred("c", 4);
  for (Value key = 0; key < 4; ++key) {
    for (Value e = 0; e < 6; ++e) {
      db_.Add(a, {key, e, (e * 7) % 4, (key + e) % 3});
      db_.Add(b, {key % 3, e, e % 2, (key + e / 2) % 4});
      db_.Add(c, {key, e + 10, e % 3, (key * e) % 5});
    }
  }
  db_.Add(a, {Sym("alice"), 2, 2, 1});
  db_.DedupAll();

  const char* queries[] = {
      // The chain: six existential columns, two head variables.
      "q(X, W) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(Z, E5, E6, W).",
      // Nullary heads over the same body, satisfiable or not.
      "q() :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(Z, E5, E6, W).",
      "q() :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(Z, E5, E6, 99).",
      // A variable read only by a comparison, applied at a later step
      // than the one that binds it, and at the step that binds it.
      "q(X, Z) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), E3 < E1.",
      "q(X, Z) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), E1 != 2.",
      "q(X, W) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(Z, E5, E6, W), "
      "E2 <= E6.",
      // A variable repeated inside one atom and nowhere else.
      "q(X, Z) :- a(X, E, E, Y), b(Y, E3, E4, Z).",
      "q(Y) :- a(X, E1, E2, Y), b(Y, F, F, Z).",
      // Head constants with every body variable dead.
      "q(7) :- a(X, E1, E2, Y), b(Y, E3, E4, Z).",
      "q(alice, 3) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(Z, E5, E6, W).",
      // A head variable bound first and joined on last.
      "q(X) :- a(X, E1, E2, Y), b(Y, E3, E4, Z), c(X, E5, E6, Z).",
  };
  int n = 0;
  int nonempty = 0;
  for (const char* text : queries) {
    Query q = Parse("p" + std::to_string(n++) + std::string(text).substr(1));
    if (ExpectMatchesReference(q, db_, text) > 0) ++nonempty;
  }
  // Not vacuous: only the unsatisfiable nullary query has no answer.
  EXPECT_EQ(nonempty, static_cast<int>(std::size(queries)) - 1);
}

TEST_F(EvalReferenceTest, IntermediateRowsCountTheProjectedPipeline) {
  // q(Y) :- r(X, E), s(X, Y). r is smaller, so it joins first and emits
  // its 3 rows; E dies there, leaving one binding (X = 1). s then emits
  // its 2 rows for X = 1. Carrying E along would have probed s three
  // times and emitted 3 + 3 * 2 = 9 rows.
  PredId r = Pred("r", 2);
  PredId s = Pred("s", 2);
  for (Value e : {10, 11, 12}) db_.Add(r, {1, e});
  db_.Add(s, {1, 5});
  db_.Add(s, {1, 6});
  db_.Add(s, {2, 5});
  db_.Add(s, {2, 7});
  db_.DedupAll();
  Query q = Parse("q(Y) :- r(X, E), s(X, Y).");

  EvalStats stats;
  auto got = EvaluateQuery(q, db_, {}, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->Rows(), (std::vector<Row>{{5}, {6}}));
  EXPECT_EQ(stats.intermediate_rows, 5u);
  EXPECT_LT(stats.intermediate_rows, 9u);

  // The cap bounds the projected count: 5 passes, 4 does not.
  EvalOptions at_cap;
  at_cap.intermediate_row_cap = 5;
  EXPECT_TRUE(EvaluateQuery(q, db_, at_cap).ok());
  at_cap.intermediate_row_cap = 4;
  EXPECT_EQ(EvaluateQuery(q, db_, at_cap).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(EvalProperties, RowCapFiresAtSameCountsWithIndexesOn) {
  // A cross-product-heavy query with a known intermediate-row footprint:
  // the cap must fire at exactly that count, with the indexes cold or
  // warm.
  Catalog cat;
  Query q = ParseQuery("q(X, Y) :- r(X, A), s(Y, B).", &cat).value();
  Database db(&cat);
  PredId r = cat.FindPredicate("r").value();
  PredId s = cat.FindPredicate("s").value();
  for (int i = 0; i < 30; ++i) {
    db.Add(r, {i, i % 5});
    db.Add(s, {i, i % 7});
  }
  db.DedupAll();

  EvalStats reference;
  ASSERT_TRUE(EvaluateQuery(q, db, {}, &reference).ok());
  ASSERT_GT(reference.intermediate_rows, 0u);

  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "first" : "repeat");
    EvalOptions at_cap;
    at_cap.intermediate_row_cap = reference.intermediate_rows;
    EvalStats at_cap_stats;
    EXPECT_TRUE(EvaluateQuery(q, db, at_cap, &at_cap_stats).ok());
    EXPECT_EQ(at_cap_stats.intermediate_rows, reference.intermediate_rows);

    EvalOptions below_cap = at_cap;
    below_cap.intermediate_row_cap = reference.intermediate_rows - 1;
    auto overrun = EvaluateQuery(q, db, below_cap);
    ASSERT_FALSE(overrun.ok());
    EXPECT_EQ(overrun.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EvalProperties, UnionDisjunctsShareCachedIndexes) {
  // Two disjuncts joining the same relation on the same key columns: the
  // first builds the index, the second must hit it.
  Catalog cat;
  Query d1 = ParseQuery("q(X, Z) :- a(X, Y), b(Y, Z).", &cat).value();
  Query d2 = ParseQuery("q(X, Z) :- c(X, Y), b(Y, Z).", &cat).value();
  Database db(&cat);
  PredId a = cat.FindPredicate("a").value();
  PredId b = cat.FindPredicate("b").value();
  PredId c = cat.FindPredicate("c").value();
  for (int i = 0; i < 40; ++i) {
    db.Add(a, {i, i % 10});
    db.Add(b, {i % 10, i});
    db.Add(c, {i + 100, i % 10});
  }
  db.DedupAll();
  UnionQuery u;
  u.disjuncts = {d1, d2};

  EvalStats stats;
  auto got = EvaluateUnion(u, db, {}, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // b's index on its probe columns is built by the first disjunct and
  // reused by the second.
  EXPECT_GE(stats.index_hits, 1u) << "no index sharing across disjuncts";

  // And the shared-index union is the union of the reference's rows.
  std::set<Row> expected = NestedLoopEvaluate(d1, db);
  std::set<Row> second = NestedLoopEvaluate(d2, db);
  expected.insert(second.begin(), second.end());
  EXPECT_EQ(SortedRows(*got), std::vector<Row>(expected.begin(), expected.end()));
}

TEST(EvalProperties, RepeatedAnswersReuseIndexesOnStaticData) {
  // The repeated-`answer` regime the cache exists for: on an unchanged
  // database, every evaluation after the first is all hits, no builds.
  Scenario s = MakeWarehouseScenario(11, 500).value();
  EvalStats first;
  ASSERT_TRUE(EvaluateQuery(s.query, s.base, {}, &first).ok());
  EXPECT_GT(first.index_builds, 0u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EvalStats again;
    ASSERT_TRUE(EvaluateQuery(s.query, s.base, {}, &again).ok());
    EXPECT_EQ(again.index_builds, 0u);
    EXPECT_GT(again.index_hits, 0u);
    EXPECT_EQ(again.intermediate_rows, first.intermediate_rows);
  }

  // Mutation invalidates: adding a fact forces a rebuild on next touch.
  PredId sale = s.catalog->FindPredicate("sale").value();
  s.base.Add(sale, {1, 1});
  EvalStats after_mutation;
  ASSERT_TRUE(EvaluateQuery(s.query, s.base, {}, &after_mutation).ok());
  EXPECT_GT(after_mutation.index_builds, 0u);
}

}  // namespace
}  // namespace aqv
