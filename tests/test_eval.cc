#include <gtest/gtest.h>

#include "cq/parser.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "eval/value.h"

namespace aqv {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  Relation Eval(const Query& q, const Database& db) {
    auto r = EvaluateQuery(q, db);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
};

TEST_F(EvalTest, ValueTaggingDisjoint) {
  EXPECT_TRUE(IsPlainNumeric(0));
  EXPECT_TRUE(IsPlainNumeric(-5));
  EXPECT_TRUE(IsSymbolic(SymbolicValue(3)));
  EXPECT_FALSE(IsPlainNumeric(SymbolicValue(3)));
  SkolemTable t;
  Value sk = t.Intern(0, {1, 2});
  EXPECT_TRUE(IsSkolem(sk));
  EXPECT_FALSE(IsPlainNumeric(sk));
}

TEST_F(EvalTest, SkolemInterningIsStable) {
  SkolemTable t;
  Value a = t.Intern(0, {1, 2});
  Value b = t.Intern(0, {1, 2});
  Value c = t.Intern(0, {1, 3});
  Value d = t.Intern(1, {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(t.entry(a).fn, 0);
  EXPECT_EQ(t.entry(a).args, (std::vector<Value>{1, 2}));
}

TEST_F(EvalTest, ValueOfConstantNumericVsSymbolic) {
  ConstId n = cat_.InternConstant("42");
  ConstId s = cat_.InternConstant("bob");
  EXPECT_EQ(ValueOfConstant(cat_, n), 42);
  EXPECT_EQ(ValueOfConstant(cat_, s), SymbolicValue(s));
}

TEST_F(EvalTest, ValueToStringRendering) {
  ConstId s = cat_.InternConstant("bob");
  SkolemTable t;
  Value sk = t.Intern(0, {7});
  EXPECT_EQ(ValueToString(cat_, 5), "5");
  EXPECT_EQ(ValueToString(cat_, SymbolicValue(s)), "bob");
  EXPECT_EQ(ValueToString(cat_, sk, &t), "f0(7)");
}

TEST_F(EvalTest, RelationSortDedup) {
  Relation r(0, 2);
  r.Add({2, 1});
  r.Add({1, 1});
  r.Add({2, 1});
  r.SortDedup();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0, 0), 1);
  EXPECT_EQ(r.at(1, 0), 2);
}

TEST_F(EvalTest, RelationSameSet) {
  Relation a(0, 1), b(0, 1);
  a.Add({1});
  a.Add({2});
  b.Add({2});
  b.Add({1});
  b.Add({1});
  EXPECT_TRUE(Relation::SameSet(a, b));
  b.Add({3});
  EXPECT_FALSE(Relation::SameSet(a, b));
}

TEST_F(EvalTest, NullaryRelationSemantics) {
  Relation r(0, 0);
  EXPECT_TRUE(r.empty());
  r.Add({});
  EXPECT_EQ(r.size(), 1u);
  r.Add({});
  EXPECT_EQ(r.size(), 1u);  // set semantics
}

TEST_F(EvalTest, SimpleJoin) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  db.Add(e, {1, 2});
  db.Add(e, {1, 3});
  db.Add(f, {2, 9});
  db.Add(f, {3, 8});
  db.Add(f, {4, 7});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({1, 9}));
  EXPECT_TRUE(out.Contains({1, 8}));
}

TEST_F(EvalTest, ConstantsFilter) {
  Query q = Parse("q(X) :- e(X, 2).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, 2});
  db.Add(e, {5, 3});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({1}));
}

TEST_F(EvalTest, RepeatedVariableWithinAtom) {
  Query q = Parse("q(X) :- e(X, X).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, 1});
  db.Add(e, {1, 2});
  db.Add(e, {3, 3});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains({1}));
  EXPECT_TRUE(out.Contains({3}));
}

TEST_F(EvalTest, ProjectionDeduplicates) {
  Query q = Parse("q(X) :- e(X, Y).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, 2});
  db.Add(e, {1, 3});
  Relation out = Eval(q, db);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(EvalTest, ComparisonsFilterRows) {
  Query q = Parse("q(X, Y) :- e(X, Y), X < Y.");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, 2});
  db.Add(e, {2, 1});
  db.Add(e, {3, 3});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({1, 2}));
}

TEST_F(EvalTest, ComparisonAgainstConstant) {
  Query q = Parse("q(X) :- e(X, Y), Y >= 5, X != 2.");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, 5});
  db.Add(e, {2, 9});
  db.Add(e, {3, 4});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({1}));
}

TEST_F(EvalTest, OrderComparisonsFalseOnTaggedValues) {
  Query q = Parse("q(X) :- e(X, Y), X < Y.");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  db.Add(e, {1, SymbolicValue(0)});  // symbolic right operand
  Relation out = Eval(q, db);
  EXPECT_TRUE(out.empty());
}

TEST_F(EvalTest, EqualityJoinsOnTaggedValues) {
  SkolemTable t;
  Value sk = t.Intern(0, {4});
  Query q = Parse("q(X) :- e(X, Y), f(Y).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  db.Add(e, {1, sk});
  db.Add(f, {sk});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 1u);  // skolems join by identity
}

TEST_F(EvalTest, EmptyRelationShortCircuits) {
  Query q = Parse("q(X) :- e(X, Y), zed(Y).");
  Database db(&cat_);
  db.Add(cat_.FindPredicate("e").value(), {1, 2});
  Relation out = Eval(q, db);
  EXPECT_TRUE(out.empty());
}

TEST_F(EvalTest, HeadConstantsEmitted) {
  Query q = Parse("q(X, 7) :- e(X, Y).");
  Database db(&cat_);
  db.Add(cat_.FindPredicate("e").value(), {1, 2});
  Relation out = Eval(q, db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({1, 7}));
}

TEST_F(EvalTest, BooleanQuerySemantics) {
  Query q = Parse("q() :- e(X, Y), f(Y, X).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  db.Add(e, {1, 2});
  Relation empty = Eval(q, db);
  EXPECT_EQ(empty.size(), 0u);
  db.Add(f, {2, 1});
  Relation yes = Eval(q, db);
  EXPECT_EQ(yes.size(), 1u);
}

TEST_F(EvalTest, UnionDeduplicatesAcrossDisjuncts) {
  UnionQuery u;
  u.disjuncts.push_back(Parse("q(X) :- e(X, Y)."));
  u.disjuncts.push_back(Parse("q(X) :- f(X, Y)."));
  Database db(&cat_);
  db.Add(cat_.FindPredicate("e").value(), {1, 2});
  db.Add(cat_.FindPredicate("f").value(), {1, 9});
  db.Add(cat_.FindPredicate("f").value(), {5, 9});
  auto out = EvaluateUnion(u, db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
}

TEST_F(EvalTest, RowCapSurfaces) {
  Query q = Parse("q(X, Y, Z) :- e(X, Y), e(Y, Z).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; ++j) db.Add(e, {i % 4, j});
  }
  EvalOptions opts;
  opts.intermediate_row_cap = 10;
  auto out = EvaluateQuery(q, db, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EvalTest, UnionRowCapHoldsPerDisjunctWithOrWithoutStats) {
  // Each disjunct emits 10 rows under a cap of 10. The cap judges each
  // evaluation on its own rows, so collecting stats across the union
  // must not turn the second disjunct into an overrun.
  Query q = Parse("q(X, Y) :- r(X, Y).");
  Database db(&cat_);
  PredId r = cat_.FindPredicate("r").value();
  for (int i = 0; i < 10; ++i) db.Add(r, {i, i + 1});
  UnionQuery u;
  u.disjuncts = {q, q};
  EvalOptions opts;
  opts.intermediate_row_cap = 10;

  auto without_stats = EvaluateUnion(u, db, opts);
  ASSERT_TRUE(without_stats.ok()) << without_stats.status().ToString();
  EvalStats stats;
  auto with_stats = EvaluateUnion(u, db, opts, &stats);
  ASSERT_TRUE(with_stats.ok()) << with_stats.status().ToString();
  EXPECT_EQ(with_stats.value().size(), 10u);
  // The counter still sums over the union.
  EXPECT_EQ(stats.intermediate_rows, 20u);
}

TEST_F(EvalTest, RowCapIgnoresRowsAlreadyInTheCallersStats) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  Database db(&cat_);
  PredId r = cat_.FindPredicate("r").value();
  for (int i = 0; i < 10; ++i) db.Add(r, {i, i + 1});
  EvalOptions opts;
  opts.intermediate_row_cap = 10;
  EvalStats running;
  running.intermediate_rows = 5;
  auto out = EvaluateQuery(q, db, opts, &running);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(running.intermediate_rows, 15u);

  // One call past the cap on its own still fails.
  opts.intermediate_row_cap = 9;
  auto over = EvaluateQuery(q, db, opts, &running);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EvalTest, MaterializeViewsProducesExtents) {
  ViewSet vs = ViewSet::Parse("v(X) :- e(X, Y), f(Y).", &cat_).value();
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  db.Add(e, {1, 2});
  db.Add(e, {3, 4});
  db.Add(f, {2});
  auto mat = MaterializeViews(vs, db);
  ASSERT_TRUE(mat.ok());
  const Relation* extent = mat.value().Find(vs.view(0).pred);
  ASSERT_NE(extent, nullptr);
  ASSERT_EQ(extent->size(), 1u);
  EXPECT_TRUE(extent->Contains({1}));
  // The base relations are NOT exposed in the materialized database.
  EXPECT_EQ(mat.value().Find(e), nullptr);
}

TEST_F(EvalTest, MaterializeViewsUnionsSharedPredicate) {
  // Two rules sharing one head predicate (a union source): the extent is
  // the deduplicated union of both rules' outputs (regression: the second
  // rule's extent used to clobber the first's rows).
  ViewSet vs;
  ASSERT_TRUE(vs.Add(Parse("u(X) :- a(X).")).ok());
  ASSERT_TRUE(vs.AddRule(Parse("u(X) :- b(X).")).ok());
  ASSERT_TRUE(vs.HasUnionSources());
  Database db(&cat_);
  PredId a = cat_.FindPredicate("a").value();
  PredId b = cat_.FindPredicate("b").value();
  db.Add(a, {1});
  db.Add(a, {2});
  db.Add(b, {2});
  db.Add(b, {3});
  auto mat = MaterializeViews(vs, db);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  const Relation* extent = mat.value().Find(vs.view(0).pred);
  ASSERT_NE(extent, nullptr);
  EXPECT_EQ(extent->size(), 3u);  // {1, 2, 3}, deduplicated
  EXPECT_TRUE(extent->Contains({1}));
  EXPECT_TRUE(extent->Contains({2}));
  EXPECT_TRUE(extent->Contains({3}));
}

TEST_F(EvalTest, MaterializeViewsUnionsNullarySource) {
  ViewSet vs;
  ASSERT_TRUE(vs.Add(Parse("flag() :- a(X).")).ok());
  ASSERT_TRUE(vs.AddRule(Parse("flag() :- b(X).")).ok());
  Database db(&cat_);
  db.Add(cat_.FindPredicate("a").value(), {4});
  db.Add(cat_.FindPredicate("b").value(), {5});  // both rules fire
  auto mat = MaterializeViews(vs, db);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  const Relation* extent = mat.value().Find(vs.view(0).pred);
  ASSERT_NE(extent, nullptr);
  EXPECT_EQ(extent->size(), 1u);
}

TEST_F(EvalTest, DatabaseBookkeeping) {
  Database db(&cat_);
  PredId e = cat_.GetOrAddPredicate("zz", 2).value();
  EXPECT_EQ(db.Find(e), nullptr);
  db.Add(e, {1, 2});
  EXPECT_NE(db.Find(e), nullptr);
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_EQ(db.Predicates().size(), 1u);
}

TEST_F(EvalTest, RelationColumnarAdapters) {
  Relation r(0, 3);
  r.Add({1, 2, 3});
  r.Add({4, 5, 6});
  EXPECT_STREQ(r.StorageBackend(), "columnar");
  // Row-major reads are adapters over per-column storage.
  EXPECT_EQ(r.at(1, 0), 4);
  EXPECT_EQ(r.at(0, 2), 3);
  EXPECT_EQ(r.RowCopy(0), (std::vector<Value>{1, 2, 3}));
  // Column pointers are contiguous per column.
  const Value* col1 = r.ColumnData(1);
  EXPECT_EQ(col1[0], 2);
  EXPECT_EQ(col1[1], 5);
}

TEST_F(EvalTest, ContainsBinarySearchesWhenSorted) {
  Relation r(0, 2);
  // Empty and single-row relations are vacuously sorted.
  EXPECT_TRUE(r.sorted());
  r.Add({5, 5});
  EXPECT_TRUE(r.sorted());
  r.Add({1, 2});
  r.Add({3, 4});
  EXPECT_FALSE(r.sorted());  // appends out of order
  // Linear fallback still answers correctly while unsorted.
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 1}));
  r.SortDedup();
  EXPECT_TRUE(r.sorted());
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_TRUE(r.Contains({3, 4}));
  EXPECT_TRUE(r.Contains({5, 5}));
  EXPECT_FALSE(r.Contains({0, 0}));
  EXPECT_FALSE(r.Contains({6, 6}));
  EXPECT_FALSE(r.Contains({3, 5}));
}

TEST_F(EvalTest, IndexCacheLifecycle) {
  Relation r(0, 2);
  r.Add({1, 10});
  r.Add({2, 20});
  r.Add({1, 30});
  bool built = false;
  auto idx = r.IndexOn({0}, &built);
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(built);
  EXPECT_EQ(r.CachedIndexCount(), 1u);
  const std::vector<uint32_t>* rows = idx->Find({1});
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<uint32_t>{0, 2}));  // ascending row ids
  EXPECT_EQ(idx->Find({99}), nullptr);

  // Second request on the same columns is a cache hit.
  auto again = r.IndexOn({0}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(again.get(), idx.get());
  // A different column set is a separate cached index.
  r.IndexOn({1}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(r.CachedIndexCount(), 2u);

  // Mutation invalidates every cached index; the old snapshot stays
  // valid for holders.
  r.Add({3, 40});
  EXPECT_EQ(r.CachedIndexCount(), 0u);
  EXPECT_EQ(idx->rows_indexed, 3u);
  auto rebuilt = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(rebuilt->rows_indexed, 4u);
}

TEST_F(EvalTest, RelationCopySharesCachedIndexes) {
  Relation r(0, 2);
  r.Add({1, 10});
  r.Add({2, 20});
  bool built = false;
  auto idx = r.IndexOn({0}, &built);
  Relation copy = r;  // datalog's `Database db = edb` path
  auto from_copy = copy.IndexOn({0}, &built);
  EXPECT_FALSE(built) << "copy should share the source's index snapshot";
  EXPECT_EQ(from_copy.get(), idx.get());
  // Mutating the copy invalidates only the copy's cache.
  copy.Add({3, 30});
  EXPECT_EQ(copy.CachedIndexCount(), 0u);
  EXPECT_EQ(r.CachedIndexCount(), 1u);
}

TEST_F(EvalTest, MeasuredStatisticsPerColumn) {
  Relation r(0, 2);
  r.Add({1, 7});
  r.Add({2, 7});
  r.Add({3, 7});
  r.Add({1, 7});  // duplicate row
  r.SortDedup();
  auto stats = r.Measured();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->cardinality, 3u);
  ASSERT_EQ(stats->columns.size(), 2u);
  EXPECT_EQ(stats->columns[0].distinct, 3u);
  EXPECT_EQ(stats->columns[1].distinct, 1u);
  EXPECT_TRUE(stats->columns[0].has_numeric_range);
  EXPECT_EQ(stats->columns[0].min, 1);
  EXPECT_EQ(stats->columns[0].max, 3);
  // Cached until mutation: same snapshot object.
  EXPECT_EQ(r.Measured().get(), stats.get());
  r.Add({9, 9});
  auto fresh = r.Measured();
  EXPECT_EQ(fresh->cardinality, 4u);
  EXPECT_EQ(fresh->columns[1].distinct, 2u);
}

TEST_F(EvalTest, MeasuredStatisticsSymbolicColumnsHaveNoRange) {
  Relation r(0, 1);
  r.Add({SymbolicValue(1)});
  r.Add({SymbolicValue(2)});
  r.SortDedup();
  auto stats = r.Measured();
  EXPECT_EQ(stats->columns[0].distinct, 2u);
  EXPECT_FALSE(stats->columns[0].has_numeric_range);
}

TEST_F(EvalTest, DatabaseStatsSurface) {
  Database db(&cat_);
  PredId e = cat_.GetOrAddPredicate("measured", 2).value();
  EXPECT_EQ(db.Stats(e), nullptr);  // never touched
  db.Add(e, {1, 2});
  db.Add(e, {1, 3});
  auto stats = db.Stats(e);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->cardinality, 2u);
  EXPECT_EQ(stats->columns[0].distinct, 1u);
  EXPECT_EQ(stats->columns[1].distinct, 2u);
}

TEST_F(EvalTest, EvalStatsCountersTrackIndexUse) {
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  Database db(&cat_);
  db.Add(cat_.FindPredicate("e").value(), {1, 2});
  db.Add(cat_.FindPredicate("f").value(), {2, 3});
  EvalOptions hot;
  EvalStats cold_run;
  auto first = EvaluateQuery(q, db, hot, &cold_run);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(cold_run.index_builds, 0u);
  EXPECT_EQ(cold_run.index_hits, 0u);
  EXPECT_GT(cold_run.probes, 0u);
  EvalStats warm_run;
  ASSERT_TRUE(EvaluateQuery(q, db, hot, &warm_run).ok());
  EXPECT_EQ(warm_run.index_builds, 0u);
  EXPECT_GT(warm_run.index_hits, 0u);
  EXPECT_EQ(warm_run.probes, cold_run.probes);
}

TEST_F(EvalTest, ConstantProbesUseCachedIndexes) {
  // A constant-only atom position is part of the cached index key, so
  // point lookups like f(Y, 7) probe instead of scanning.
  Query q = Parse("q(X) :- e(X, Y), f(Y, 7).");
  Database db(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  for (int i = 0; i < 10; ++i) {
    db.Add(e, {i, i});
    db.Add(f, {i, i == 3 ? 7 : 0});
  }
  EvalStats stats;
  auto r = EvaluateQuery(q, db, EvalOptions(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Rows(), (std::vector<std::vector<Value>>{{3}}));
  EXPECT_GT(stats.index_builds, 0u);
  EvalStats warm;
  ASSERT_TRUE(EvaluateQuery(q, db, EvalOptions(), &warm).ok());
  EXPECT_EQ(warm.index_builds, 0u);
  EXPECT_GT(warm.index_hits, 0u);
}

}  // namespace
}  // namespace aqv
