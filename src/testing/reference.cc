#include "testing/reference.h"

#include <optional>
#include <string>
#include <utility>

namespace aqv {

namespace {

using Row = std::vector<Value>;

bool ReferenceCmp(CmpOp op, Value a, Value b) {
  bool numeric = IsPlainNumeric(a) && IsPlainNumeric(b);
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return numeric && a < b;
    case CmpOp::kLe:
      return numeric && a <= b;
  }
  return false;
}

/// The backtracking search behind NestedLoopEvaluate.
class NestedLoop {
 public:
  NestedLoop(const Query& q, const Database& db)
      : q_(q), db_(db), binding_(static_cast<size_t>(q.num_vars())) {}

  std::set<Row> Run() {
    Match(0);
    return std::move(out_);
  }

 private:
  Value ValueOf(Term t) const {
    if (t.is_const()) return ValueOfConstant(*q_.catalog(), t.constant());
    return *binding_[static_cast<size_t>(t.var())];
  }

  void Match(size_t atom) {
    if (atom == q_.body().size()) {
      for (const Comparison& c : q_.comparisons()) {
        if (!ReferenceCmp(c.op, ValueOf(c.lhs), ValueOf(c.rhs))) return;
      }
      Row head;
      for (Term t : q_.head().args) head.push_back(ValueOf(t));
      out_.insert(std::move(head));
      return;
    }
    const Atom& a = q_.body()[atom];
    const Relation* rel = db_.Find(a.pred);
    if (rel == nullptr) return;
    for (size_t r = 0; r < rel->size(); ++r) {
      std::vector<VarId> bound_here;
      bool matches = true;
      for (int i = 0; i < a.arity() && matches; ++i) {
        Value v = rel->at(r, i);
        Term t = a.args[i];
        if (t.is_const()) {
          matches = ValueOfConstant(*q_.catalog(), t.constant()) == v;
        } else if (std::optional<Value>& slot =
                       binding_[static_cast<size_t>(t.var())];
                   slot.has_value()) {
          matches = *slot == v;
        } else {
          slot = v;
          bound_here.push_back(t.var());
        }
      }
      if (matches) Match(atom + 1);
      for (VarId v : bound_here) binding_[static_cast<size_t>(v)].reset();
    }
  }

  const Query& q_;
  const Database& db_;
  std::vector<std::optional<Value>> binding_;
  std::set<Row> out_;
};

/// Labelled nulls take the values below kSkolemBase, which no constant
/// maps to (eval/value.h), numbered in the order the chase makes them.
Value LabelledNull(int64_t index) { return kSkolemBase - index; }

}  // namespace

std::set<Row> NestedLoopEvaluate(const Query& q, const Database& db) {
  return NestedLoop(q, db).Run();
}

Result<Relation> ChaseCertainAnswers(const UnionQuery& q, const ViewSet& views,
                                     const Database& view_extents) {
  if (q.empty()) return Status::InvalidArgument("empty union query");
  if (views.HasUnionSources()) {
    return Status::Unimplemented("the chase needs single-rule views");
  }
  for (const Query& d : q.disjuncts) {
    if (!d.comparisons().empty()) {
      return Status::Unimplemented("the chase needs a comparison-free query");
    }
  }
  const Catalog& catalog = *q.disjuncts[0].catalog();
  Database chased(&catalog);
  int64_t nulls = 0;
  for (const View& view : views.views()) {
    const Query& def = view.definition;
    if (!def.comparisons().empty()) {
      return Status::Unimplemented("the chase needs comparison-free views; '" +
                                   view.name() + "' has a comparison");
    }
    const Relation* extent = view_extents.Find(view.pred);
    if (extent == nullptr) continue;
    for (size_t r = 0; r < extent->size(); ++r) {
      // Head variables take the row's values; the rest get fresh nulls.
      std::vector<std::optional<Value>> binding(
          static_cast<size_t>(def.num_vars()));
      for (int i = 0; i < extent->arity(); ++i) {
        Term h = def.head().args[i];
        Value v = extent->at(r, i);
        bool consistent = true;
        if (h.is_const()) {
          consistent = ValueOfConstant(catalog, h.constant()) == v;
        } else if (std::optional<Value>& slot =
                       binding[static_cast<size_t>(h.var())];
                   slot.has_value()) {
          consistent = *slot == v;
        } else {
          slot = v;
        }
        if (!consistent) {
          return Status::InvalidArgument("an extent row of '" + view.name() +
                                         "' contradicts the view's head");
        }
      }
      for (const Atom& a : def.body()) {
        Row fact;
        for (Term t : a.args) {
          if (t.is_const()) {
            fact.push_back(ValueOfConstant(catalog, t.constant()));
            continue;
          }
          std::optional<Value>& slot = binding[static_cast<size_t>(t.var())];
          if (!slot.has_value()) slot = LabelledNull(nulls++);
          fact.push_back(*slot);
        }
        chased.Add(a.pred, fact);
      }
    }
  }

  // Facts without nulls recur across views; keep one copy of each.
  chased.DedupAll();

  const Atom& head = q.disjuncts[0].head();
  Relation out(head.pred, head.arity());
  std::set<Row> certain;
  for (const Query& d : q.disjuncts) {
    for (const Row& row : NestedLoopEvaluate(d, chased)) {
      bool has_null = false;
      for (Value v : row) has_null |= IsSkolem(v);
      if (!has_null) certain.insert(row);
    }
  }
  for (const Row& row : certain) out.Add(row);
  out.SortDedup();
  return out;
}

namespace {

/// Collects the active domain of the extents plus constants used by the
/// views and query.
std::vector<Value> Universe(const Query& q, const ViewSet& views,
                            const Database& extents, int extra) {
  std::set<Value> dom;
  for (PredId p : extents.Predicates()) {
    const Relation* rel = extents.Find(p);
    for (size_t i = 0; i < rel->size(); ++i) {
      for (int c = 0; c < rel->arity(); ++c) dom.insert(rel->at(i, c));
    }
  }
  const Catalog& cat = *q.catalog();
  auto add_query_consts = [&](const Query& query) {
    for (const Atom& a : query.body()) {
      for (Term t : a.args) {
        if (t.is_const()) dom.insert(ValueOfConstant(cat, t.constant()));
      }
    }
  };
  add_query_consts(q);
  for (const View& v : views.views()) add_query_consts(v.definition);
  // Fresh values clearly outside the active domain.
  Value fresh = 1'000'000'007;
  for (int i = 0; i < extra; ++i) {
    while (dom.count(fresh)) ++fresh;
    dom.insert(fresh);
    ++fresh;
  }
  return std::vector<Value>(dom.begin(), dom.end());
}

/// Base predicates mentioned by the views (the world's schema).
std::vector<PredId> BasePredicates(const ViewSet& views) {
  std::set<PredId> preds;
  for (const View& v : views.views()) {
    for (const Atom& a : v.definition.body()) preds.insert(a.pred);
  }
  return std::vector<PredId>(preds.begin(), preds.end());
}

}  // namespace

Result<Relation> BruteForceCertainAnswers(const Query& q, const ViewSet& views,
                                          const Database& view_extents,
                                          const WorldEnumOptions& options) {
  const Catalog& cat = *q.catalog();
  std::vector<Value> universe =
      Universe(q, views, view_extents, options.extra_constants);
  std::vector<PredId> base_preds = BasePredicates(views);

  // The lattice of candidate tuples: every base predicate crossed with
  // universe^arity.
  struct CandidateTuple {
    PredId pred;
    std::vector<Value> row;
  };
  std::vector<CandidateTuple> tuples;
  for (PredId p : base_preds) {
    int arity = cat.pred(p).arity;
    std::vector<int> idx(arity, 0);
    for (;;) {
      CandidateTuple t;
      t.pred = p;
      for (int i = 0; i < arity; ++i) t.row.push_back(universe[idx[i]]);
      tuples.push_back(std::move(t));
      int pos = arity - 1;
      while (pos >= 0 && ++idx[pos] == static_cast<int>(universe.size())) {
        idx[pos--] = 0;
      }
      if (pos < 0) break;
    }
  }
  if (static_cast<int>(tuples.size()) > options.max_world_tuples) {
    return Status::ResourceExhausted(
        "world lattice has " + std::to_string(tuples.size()) +
        " candidate tuples; max_world_tuples=" +
        std::to_string(options.max_world_tuples));
  }

  bool first = true;
  std::set<std::vector<Value>> certain;
  bool certain_nullary = false;
  uint64_t num_worlds = uint64_t{1} << tuples.size();
  for (uint64_t world = 0; world < num_worlds; ++world) {
    Database db(q.catalog());
    for (PredId p : base_preds) db.GetOrCreate(p);
    for (size_t i = 0; i < tuples.size(); ++i) {
      if ((world >> i) & 1) db.Add(tuples[i].pred, tuples[i].row);
    }
    // Consistency: every view's result over this world contains its extent.
    bool consistent = true;
    for (const View& v : views.views()) {
      AQV_ASSIGN_OR_RETURN(Relation result,
                           EvaluateQuery(v.definition, db, options.eval));
      const Relation* extent = view_extents.Find(v.pred);
      if (extent == nullptr) continue;
      for (size_t i = 0; i < extent->size() && consistent; ++i) {
        if (!result.Contains(extent->RowCopy(i))) consistent = false;
      }
      if (extent->arity() == 0 && extent->size() == 1 && result.empty()) {
        consistent = false;
      }
      if (!consistent) break;
    }
    if (!consistent) continue;

    AQV_ASSIGN_OR_RETURN(Relation answers,
                         EvaluateQuery(q, db, options.eval));
    if (q.head().arity() == 0) {
      bool holds = answers.size() == 1;
      certain_nullary = first ? holds : (certain_nullary && holds);
      first = false;
      continue;
    }
    std::set<std::vector<Value>> rows;
    for (auto& r : answers.Rows()) rows.insert(std::move(r));
    if (first) {
      certain = std::move(rows);
      first = false;
    } else {
      std::set<std::vector<Value>> inter;
      for (const auto& r : certain) {
        if (rows.count(r)) inter.insert(r);
      }
      certain = std::move(inter);
    }
    if (!certain_nullary && certain.empty() && !first &&
        q.head().arity() != 0) {
      break;  // intersection can only shrink
    }
  }

  Relation out(q.head().pred, q.head().arity());
  if (q.head().arity() == 0) {
    if (!first && certain_nullary) out.Add({});
    return out;
  }
  for (const auto& r : certain) out.Add(r);
  out.SortDedup();
  return out;
}

FrozenQuery FreezeQuery(const Query& q, Catalog* catalog) {
  FrozenQuery out;
  out.var_to_const.resize(q.num_vars());
  for (VarId v = 0; v < q.num_vars(); ++v) {
    out.var_to_const[v] = catalog->FreshConstant("frz_" + q.var_name(v) + "_");
  }
  auto freeze_term = [&](Term t) -> Term {
    if (t.is_const()) return t;
    return Term::Const(out.var_to_const[t.var()]);
  };
  Query frozen(catalog);
  Atom head = q.head();
  for (Term& t : head.args) t = freeze_term(t);
  frozen.set_head(std::move(head));
  for (const Atom& a : q.body()) {
    Atom fa = a;
    for (Term& t : fa.args) t = freeze_term(t);
    frozen.AddBodyAtom(std::move(fa));
  }
  for (const Comparison& c : q.comparisons()) {
    frozen.AddComparison(
        Comparison(c.op, freeze_term(c.lhs), freeze_term(c.rhs)));
  }
  out.frozen = std::move(frozen);
  return out;
}

}  // namespace aqv
