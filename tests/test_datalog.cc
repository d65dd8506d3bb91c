#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cq/parser.h"
#include "eval/datalog.h"
#include "eval/materialize.h"
#include "workload/generator.h"

namespace aqv {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  Catalog cat_;
};

TEST_F(DatalogTest, ApplyInverseRulesReconstructsFacts) {
  ViewSet vs = ViewSet::Parse("v(X, Z) :- r(X, Y), s(Y, Z).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId v = cat_.FindPredicate("v").value();
  extents.Add(v, {1, 9});
  extents.Add(v, {2, 8});
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  PredId r = cat_.FindPredicate("r").value();
  PredId s = cat_.FindPredicate("s").value();
  const Relation* rr = out.value().Find(r);
  const Relation* ss = out.value().Find(s);
  ASSERT_NE(rr, nullptr);
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(rr->size(), 2u);
  EXPECT_EQ(ss->size(), 2u);
  // The Skolem witness for tuple (1,9) joins r and s.
  EXPECT_EQ(skolems.size(), 2u);
  Value y1 = rr->Contains({1, skolems.Intern(0, {1, 9})})
                 ? skolems.Intern(0, {1, 9})
                 : -1;
  ASSERT_TRUE(IsSkolem(y1));
  EXPECT_TRUE(ss->Contains({y1, 9}));
}

TEST_F(DatalogTest, InverseRulesRepeatedHeadVarFilters) {
  ViewSet vs = ViewSet::Parse("vd(X, X) :- r(X, X).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId vd = cat_.FindPredicate("vd").value();
  extents.Add(vd, {1, 1});
  extents.Add(vd, {1, 2});  // does not match the v(X,X) pattern
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->size(), 1u);
  EXPECT_TRUE(rr->Contains({1, 1}));
}

TEST_F(DatalogTest, InverseRulesConstantFilter) {
  ViewSet vs = ViewSet::Parse("vc(X, 3) :- r(X, 3).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId vc = cat_.FindPredicate("vc").value();
  extents.Add(vc, {1, 3});
  extents.Add(vc, {2, 4});  // filtered: second column must be 3
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  EXPECT_EQ(rr->size(), 1u);
  EXPECT_TRUE(rr->Contains({1, 3}));
}

TEST_F(DatalogTest, SkolemsSharedAcrossRulesOfOneView) {
  // Both r and s receive the SAME skolem value for a given view tuple.
  ViewSet vs =
      ViewSet::Parse("vv(X) :- r(X, Y), s(Y, X).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vv").value(), {5});
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  const Relation* ss = out.value().Find(cat_.FindPredicate("s").value());
  ASSERT_EQ(rr->size(), 1u);
  ASSERT_EQ(ss->size(), 1u);
  EXPECT_EQ(skolems.size(), 1u);
  EXPECT_EQ(rr->at(0, 1), ss->at(0, 0));  // same witness value
}

TEST_F(DatalogTest, EmptyExtentsYieldEmptyDerivations) {
  ViewSet vs = ViewSet::Parse("ve(X) :- r(X, Y).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  ASSERT_NE(rr, nullptr);
  EXPECT_TRUE(rr->empty());
}

// --- reference inverse-rules application ------------------------------
//
// ApplyInverseRules and SkolemTable keep derived rows and Skolem
// arguments in flat buffers behind tables of ids. The reference below is
// the tree-based version they replaced: one std::set of row vectors per
// derived predicate and one std::map from (fn, args) to each Skolem value.
// The flat version must derive the same relations with their rows in the
// same order, and number the same Skolem terms the same way.

class ReferenceSkolemTable {
 public:
  Value Intern(int fn, std::vector<Value> args) {
    auto key = std::make_pair(fn, args);
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    Value v = kSkolemBase - static_cast<Value>(entries_.size());
    entries_.push_back(SkolemTable::Entry{fn, std::move(args)});
    index_.emplace(std::move(key), v);
    return v;
  }

  const std::vector<SkolemTable::Entry>& entries() const { return entries_; }

 private:
  std::map<std::pair<int, std::vector<Value>>, Value> index_;
  std::vector<SkolemTable::Entry> entries_;
};

Database ReferenceApplyInverseRules(const InverseRuleSet& rules,
                                    const Database& view_extents,
                                    ReferenceSkolemTable* skolems) {
  Database out(view_extents.catalog());
  const Catalog& cat = *view_extents.catalog();
  std::map<PredId, std::set<std::vector<Value>>> seen;

  for (const InverseRule& rule : rules.rules) {
    const Relation* extent = view_extents.Find(rule.view_atom.pred);
    if (extent == nullptr || extent->empty()) {
      out.GetOrCreate(rule.head_pred);  // derived relation exists, empty
      continue;
    }
    int arity = rule.view_atom.arity();
    std::vector<const Value*> cols(static_cast<size_t>(arity));
    for (int c = 0; c < arity; ++c) cols[c] = extent->ColumnData(c);
    std::vector<Value> binding;  // per view-definition variable
    std::vector<Value> tuple_buf(static_cast<size_t>(arity));
    for (size_t r = 0; r < extent->size(); ++r) {
      for (int c = 0; c < arity; ++c) tuple_buf[c] = cols[c][r];
      const Value* tuple = arity == 0 ? nullptr : tuple_buf.data();
      // Match the view head pattern against the tuple.
      binding.assign(rule.var_names.size(), 0);
      std::vector<bool> is_bound(rule.var_names.size(), false);
      bool ok = true;
      for (int i = 0; i < arity && ok; ++i) {
        Term t = rule.view_atom.args[i];
        if (t.is_const()) {
          ok = tuple[i] == ValueOfConstant(cat, t.constant());
        } else if (is_bound[t.var()]) {
          ok = binding[t.var()] == tuple[i];
        } else {
          binding[t.var()] = tuple[i];
          is_bound[t.var()] = true;
        }
      }
      if (!ok) continue;
      // Emit the head tuple.
      std::vector<Value> params;
      params.reserve(rule.skolem_params.size());
      for (VarId v : rule.skolem_params) params.push_back(binding[v]);
      std::vector<Value> head_row;
      head_row.reserve(rule.head_args.size());
      for (const InverseArg& a : rule.head_args) {
        if (a.is_skolem()) {
          head_row.push_back(skolems->Intern(a.skolem_fn, params));
        } else if (a.term.is_const()) {
          head_row.push_back(ValueOfConstant(cat, a.term.constant()));
        } else {
          head_row.push_back(binding[a.term.var()]);
        }
      }
      if (seen[rule.head_pred].insert(head_row).second) {
        out.Add(rule.head_pred, head_row);
      }
    }
  }
  return out;
}

/// Applies `rules` to `extents` both ways and expects the same derived
/// relations, row for row in order, and the same Skolem entries under the
/// same values. Returns the number of derived rows.
size_t ExpectMatchesReference(const InverseRuleSet& rules,
                              const Database& extents) {
  SkolemTable skolems;
  Result<Database> flat = ApplyInverseRules(rules, extents, &skolems);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (!flat.ok()) return 0;
  ReferenceSkolemTable ref_skolems;
  Database ref = ReferenceApplyInverseRules(rules, extents, &ref_skolems);

  EXPECT_EQ(flat->Predicates(), ref.Predicates());
  for (PredId p : ref.Predicates()) {
    const Relation* got = flat->Find(p);
    const Relation* want = ref.Find(p);
    if (got == nullptr) continue;  // reported by the Predicates() check
    EXPECT_EQ(got->arity(), want->arity()) << p;
    EXPECT_EQ(got->Rows(), want->Rows()) << p;
  }
  EXPECT_EQ(skolems.size(), ref_skolems.entries().size());
  for (size_t i = 0;
       i < std::min(skolems.size(), ref_skolems.entries().size()); ++i) {
    SkolemTable::Entry got = skolems.entry(kSkolemBase - static_cast<Value>(i));
    const SkolemTable::Entry& want = ref_skolems.entries()[i];
    EXPECT_EQ(got.fn, want.fn) << i;
    EXPECT_EQ(got.args, want.args) << i;
  }
  return static_cast<size_t>(flat->TotalTuples());
}

TEST(InverseRulesReferenceTest, MatchesOnGeneratedProblems) {
  // Problems shaped like the answer_cold benchmark workload's.
  size_t derived_rows = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratedScenarioSpec spec;
    spec.seed = seed;
    spec.num_views = 60;
    spec.facts_per_predicate = 60;
    spec.domain_size = 100;
    Result<Scenario> scenario = GenerateScenario(spec);
    ASSERT_TRUE(scenario.ok()) << seed << ": " << scenario.status().ToString();
    Result<Database> extents = MaterializeViews(scenario->views, scenario->base);
    ASSERT_TRUE(extents.ok()) << seed << ": " << extents.status().ToString();
    Result<InverseRuleSet> rules = BuildInverseRules(scenario->views);
    ASSERT_TRUE(rules.ok()) << seed << ": " << rules.status().ToString();
    derived_rows += ExpectMatchesReference(*rules, *extents);
  }
  // The problems derive enough rows to grow every table several times.
  EXPECT_GT(derived_rows, 40u * 1000u);
}

TEST(InverseRulesReferenceTest, MatchesOnHandWrittenViews) {
  Catalog cat;
  ViewSet views = ViewSet::Parse(
                      // A repeated head variable filters the extent.
                      "vrep(X, X, Z) :- r(X, Y), s(Y, Z). "
                      // Head constants filter it and reach derived rows.
                      "vconst(X, 3) :- r(X, Y), t(Y, 3), u(X, X). "
                      // A nullary body atom derives a presence bit.
                      "vflag(X) :- r(X, Y), flag(). "
                      // A nullary view: every Skolem has no parameter.
                      "vnone() :- s(A, B), t(B, A). "
                      // An empty extent still yields a derived relation.
                      "vempty(X) :- w(X, Y).",
                      &cat)
                      .value();
  Result<InverseRuleSet> rules = BuildInverseRules(views);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  Database extents(&cat);
  auto add = [&](const char* view, std::vector<Value> row) {
    extents.Add(cat.FindPredicate(view).value(), row);
  };
  for (Value x = 0; x < 6; ++x) {
    add("vrep", {x, x, x % 3});
    add("vrep", {x, x + 1, x});  // fails the repeated-variable filter
    add("vrep", {x % 2, x % 2, 7});  // repeats across rows
    add("vconst", {x % 4, 3});
    add("vconst", {x, 4});  // fails the constant filter
    add("vflag", {x % 3});
  }
  add("vnone", {});
  extents.GetOrCreate(cat.FindPredicate("vempty").value());
  EXPECT_GT(ExpectMatchesReference(*rules, extents), 0u);
}

TEST(SkolemTableTest, InternsPastSeveralGrowths) {
  // Entries of varying function and argument count, interned twice: the
  // second pass must find every one under its first value.
  constexpr int kEntries = 12'000;
  auto args_of = [](int i) {
    std::vector<Value> args;
    for (int k = 0; k <= i % 4; ++k) args.push_back(i * 7 + k);
    return args;
  };
  SkolemTable table;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_EQ(table.Intern(i % 5, args_of(i)), kSkolemBase - i) << i;
  }
  ASSERT_EQ(table.size(), static_cast<size_t>(kEntries));
  for (int i = 0; i < kEntries; ++i) {
    std::vector<Value> args = args_of(i);
    EXPECT_EQ(table.Intern(i % 5, args.data(), args.size()), kSkolemBase - i)
        << i;
    SkolemTable::Entry entry = table.entry(kSkolemBase - i);
    EXPECT_EQ(entry.fn, i % 5) << i;
    EXPECT_EQ(entry.args, args) << i;
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kEntries));
}

}  // namespace
}  // namespace aqv
