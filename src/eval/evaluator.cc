#include "eval/evaluator.h"

#include <algorithm>

#include "eval/index.h"
#include "eval/value.h"
#include "util/hash.h"
#include "util/id_table.h"

namespace aqv {

namespace {

bool CmpHolds(CmpOp op, Value a, Value b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return IsPlainNumeric(a) && IsPlainNumeric(b) && a < b;
    case CmpOp::kLe:
      return IsPlainNumeric(a) && IsPlainNumeric(b) && a <= b;
  }
  return false;
}

/// Greedy atom order: maximize already-bound variables, tie-break on
/// relation size.
std::vector<int> PlanAtomOrder(const Query& q, const Database& db) {
  int n = static_cast<int>(q.body().size());
  std::vector<int> order;
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.num_vars(), false);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    int best_bound = -1;
    size_t best_size = SIZE_MAX;
    for (int i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Atom& a = q.body()[i];
      int bound_args = 0;
      for (Term t : a.args) {
        if (t.is_const() || bound[t.var()]) ++bound_args;
      }
      const Relation* rel = db.Find(a.pred);
      size_t rel_size = rel == nullptr ? 0 : rel->size();
      if (bound_args > best_bound ||
          (bound_args == best_bound && rel_size < best_size)) {
        best = i;
        best_bound = bound_args;
        best_size = rel_size;
      }
    }
    order.push_back(best);
    used[best] = true;
    for (Term t : q.body()[best].args) {
      if (t.is_var()) bound[t.var()] = true;
    }
  }
  return order;
}

/// The last plan step that reads each variable: the last atom holding it,
/// or the step after which a comparison on it applies, whichever is
/// later. Head variables are read after the last step (`order.size()`).
std::vector<int> LastReadSteps(const Query& q, const std::vector<int>& order) {
  std::vector<int> bound_at(q.num_vars(), -1);
  std::vector<int> last(q.num_vars(), -1);
  for (int step = 0; step < static_cast<int>(order.size()); ++step) {
    for (Term t : q.body()[order[step]].args) {
      if (!t.is_var()) continue;
      if (bound_at[t.var()] < 0) bound_at[t.var()] = step;
      last[t.var()] = step;
    }
  }
  for (const Comparison& c : q.comparisons()) {
    int applied = 0;
    for (Term t : {c.lhs, c.rhs}) {
      if (t.is_var()) applied = std::max(applied, bound_at[t.var()]);
    }
    for (Term t : {c.lhs, c.rhs}) {
      if (t.is_var()) last[t.var()] = std::max(last[t.var()], applied);
    }
  }
  for (Term t : q.head().args) {
    if (t.is_var()) last[t.var()] = static_cast<int>(order.size());
  }
  return last;
}

/// \brief Keeps one binding row per distinct assignment of the live
/// variables: a table of row ids over the flat rows, whose slots are
/// reused from one join step to the next.
class LiveRowDedup {
 public:
  /// Compacts the first `count` rows of `rows` (`width` values each) to
  /// the first row of each distinct assignment of `live`, in order;
  /// returns how many remain.
  size_t Run(const std::vector<VarId>& live, size_t width, size_t count,
             std::vector<Value>* rows) {
    table_.Clear(count);
    Value* data = rows->data();
    auto hash = [&](const Value* row) {
      Fnv1a h;
      for (VarId v : live) h.Mix(static_cast<uint64_t>(row[v]));
      return h.hash();
    };
    size_t kept = 0;
    for (size_t r = 0; r < count; ++r) {
      const Value* row = data + r * width;
      uint32_t earlier = table_.Find(hash(row), [&](uint32_t id) {
        const Value* other = data + id * width;
        return std::all_of(live.begin(), live.end(),
                           [&](VarId v) { return other[v] == row[v]; });
      });
      if (earlier != IdTable::kNone) continue;
      if (kept != r) std::copy(row, row + width, data + kept * width);
      table_.Insert(static_cast<uint32_t>(kept++), [&](uint32_t id) {
        return hash(data + id * width);
      });
    }
    return kept;
  }

 private:
  IdTable table_;
};

}  // namespace

Result<Relation> EvaluateQuery(const Query& q, const Database& db,
                               const EvalOptions& options, EvalStats* stats) {
  AQV_RETURN_NOT_OK(q.Validate());
  const Catalog& cat = *q.catalog();
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  std::vector<int> order = PlanAtomOrder(q, db);
  std::vector<int> last_read = LastReadSteps(q, order);
  int nv = q.num_vars();

  // Bindings: flat rows of nv values; the slots of unbound and of dead
  // variables are don't-care (both masks advance statically with the
  // plan).
  std::vector<Value> bindings(static_cast<size_t>(nv), 0);
  size_t num_bindings = 1;
  if (nv == 0) bindings.clear();

  std::vector<bool> bound(nv, false);
  std::vector<bool> cmp_applied(q.comparisons().size(), false);
  // Rows this call has emitted: the cap judges each call on its own.
  uint64_t call_rows = 0;
  std::vector<Value> next;
  std::vector<VarId> live;
  LiveRowDedup dedup;
  // Per-step scratch, reused from one step to the next.
  std::vector<int> key_positions;        // bound-variable arg positions
  std::vector<VarId> key_vars;           // their variables
  std::vector<std::pair<int, Value>> const_positions;
  std::vector<std::pair<int, VarId>> new_positions;  // first occurrence
  std::vector<std::pair<int, int>> dup_positions;    // (pos, earlier pos)
  std::vector<int> first_pos_of_var;
  std::vector<const Value*> cols;
  std::vector<int> index_cols;
  std::vector<VarId> probe_from_var;
  std::vector<Value> probe;

  auto apply_ready_comparisons = [&](std::vector<Value>* rows,
                                     size_t* count) {
    for (size_t ci = 0; ci < q.comparisons().size(); ++ci) {
      if (cmp_applied[ci]) continue;
      const Comparison& c = q.comparisons()[ci];
      auto is_ready = [&](Term t) { return t.is_const() || bound[t.var()]; };
      if (!is_ready(c.lhs) || !is_ready(c.rhs)) continue;
      cmp_applied[ci] = true;
      size_t out = 0;
      for (size_t r = 0; r < *count; ++r) {
        const Value* row = rows->data() + r * nv;
        Value a = c.lhs.is_const() ? ValueOfConstant(cat, c.lhs.constant())
                                   : row[c.lhs.var()];
        Value b = c.rhs.is_const() ? ValueOfConstant(cat, c.rhs.constant())
                                   : row[c.rhs.var()];
        if (CmpHolds(c.op, a, b)) {
          if (out != r) {
            std::copy(row, row + nv, rows->data() + out * nv);
          }
          ++out;
        }
      }
      *count = out;
    }
  };

  for (int step = 0; step < static_cast<int>(order.size()); ++step) {
    const Atom& a = q.body()[order[step]];
    const Relation* rel = db.Find(a.pred);
    const size_t step_input = num_bindings;

    // Position classification under the current bound set.
    key_positions.clear();
    key_vars.clear();
    const_positions.clear();
    new_positions.clear();
    dup_positions.clear();
    first_pos_of_var.assign(static_cast<size_t>(nv), -1);
    for (int i = 0; i < a.arity(); ++i) {
      Term t = a.args[i];
      if (t.is_const()) {
        const_positions.push_back({i, ValueOfConstant(cat, t.constant())});
      } else if (bound[t.var()]) {
        key_positions.push_back(i);
        key_vars.push_back(t.var());
      } else if (first_pos_of_var[t.var()] >= 0) {
        dup_positions.push_back({i, first_pos_of_var[t.var()]});
      } else {
        first_pos_of_var[t.var()] = i;
        new_positions.push_back({i, t.var()});
      }
    }

    // Column pointers of the relation, fetched once per atom.
    size_t rel_rows = rel == nullptr ? 0 : rel->size();
    cols.clear();
    if (rel != nullptr && rel->arity() > 0) {
      cols.resize(static_cast<size_t>(rel->arity()));
      for (int c = 0; c < rel->arity(); ++c) cols[c] = rel->ColumnData(c);
    }

    auto passes_const_dup = [&](size_t r) {
      for (auto [pos, value] : const_positions) {
        if (cols[pos][r] != value) return false;
      }
      for (auto [pos, earlier] : dup_positions) {
        if (cols[pos][r] != cols[earlier][r]) return false;
      }
      return true;
    };

    size_t next_count = 0;
    // Emits the join of binding row `brow` with relation row `r`; false
    // on intermediate_row_cap overrun.
    auto emit = [&](const Value* brow, size_t r) {
      next.insert(next.end(), brow, brow + nv);
      Value* out = next.data() + next_count * nv;
      for (auto [pos, var] : new_positions) out[var] = cols[pos][r];
      ++next_count;
      return call_rows + next_count <= options.intermediate_row_cap;
    };
    auto cap_error = [] {
      return Status::ResourceExhausted(
          "join pipeline exceeded intermediate_row_cap");
    };

    if (rel != nullptr &&
        (!key_positions.empty() || !const_positions.empty())) {
      // Probe path: the persistent per-relation index is keyed by the
      // bound-variable positions *plus* the constant positions (so point
      // lookups like p(X, 7) probe instead of scanning); only the
      // within-atom duplicate filter remains per matched row. Postings
      // hold ascending row ids, so rows are emitted in relation order.
      // probe_from_var[k] >= 0: key slot k reads that binding variable;
      // otherwise the slot holds a fixed constant preloaded below.
      index_cols.clear();
      probe_from_var.clear();
      probe.clear();
      {
        size_t ki = 0;
        size_t ci = 0;
        while (ki < key_positions.size() || ci < const_positions.size()) {
          bool take_key =
              ci == const_positions.size() ||
              (ki < key_positions.size() &&
               key_positions[ki] < const_positions[ci].first);
          if (take_key) {
            index_cols.push_back(key_positions[ki]);
            probe_from_var.push_back(key_vars[ki]);
            probe.push_back(0);
            ++ki;
          } else {
            index_cols.push_back(const_positions[ci].first);
            probe_from_var.push_back(-1);
            probe.push_back(const_positions[ci].second);
            ++ci;
          }
        }
      }
      bool built = false;
      std::shared_ptr<const HashIndex> index = rel->IndexOn(index_cols,
                                                            &built);
      if (built) {
        ++stats->index_builds;
      } else {
        ++stats->index_hits;
      }
      for (size_t b = 0; b < num_bindings; ++b) {
        const Value* brow = bindings.data() + b * nv;
        for (size_t k = 0; k < probe.size(); ++k) {
          if (probe_from_var[k] >= 0) probe[k] = brow[probe_from_var[k]];
        }
        ++stats->probes;
        const std::vector<uint32_t>* postings = index->Find(probe);
        if (postings == nullptr) continue;
        for (uint32_t r : *postings) {
          bool dup_ok = true;
          for (auto [pos, earlier] : dup_positions) {
            if (cols[pos][r] != cols[earlier][r]) {
              dup_ok = false;
              break;
            }
          }
          if (!dup_ok) continue;
          if (!emit(brow, r)) return cap_error();
        }
      }
    } else {
      // Scan path: nothing to probe with (no bound variables or
      // constants), or the relation is absent. Prefilter once, then
      // cross with every binding.
      std::vector<uint32_t> candidates;
      for (size_t r = 0; r < rel_rows; ++r) {
        if (passes_const_dup(r)) candidates.push_back(static_cast<uint32_t>(r));
      }
      for (size_t b = 0; b < num_bindings; ++b) {
        const Value* brow = bindings.data() + b * nv;
        ++stats->probes;
        for (uint32_t r : candidates) {
          if (!emit(brow, r)) return cap_error();
        }
      }
    }

    call_rows += next_count;
    stats->intermediate_rows += next_count;
    bindings.swap(next);
    next.clear();
    num_bindings = next_count;
    for (auto [pos, var] : new_positions) bound[var] = true;

    apply_ready_comparisons(&bindings, &num_bindings);

    // Project away the variables no later step reads. When one dies here
    // and the step fanned out (left more rows than it was given), rows
    // that differ only in dead variables are duplicates the next steps
    // would multiply: keep one row per distinct assignment of the live
    // ones. A step that did not fan out leaves its few duplicates to the
    // next step that does, or to the final SortDedup.
    if (num_bindings > step_input &&
        std::find(last_read.begin(), last_read.end(), step) !=
            last_read.end()) {
      live.clear();
      for (VarId v = 0; v < nv; ++v) {
        if (bound[v] && last_read[v] > step) live.push_back(v);
      }
      num_bindings = dedup.Run(live, static_cast<size_t>(nv), num_bindings,
                               &bindings);
    }
    if (num_bindings == 0) break;
  }

  // Nullary-body queries keep their single empty binding; comparisons
  // between constants may still apply.
  if (q.body().empty()) {
    apply_ready_comparisons(&bindings, &num_bindings);
  }

  // Project the head.
  Relation out(q.head().pred, q.head().arity());
  out.Reserve(num_bindings);
  std::vector<Value> head_row(q.head().arity());
  for (size_t b = 0; b < num_bindings; ++b) {
    const Value* row = bindings.data() + b * nv;
    for (int i = 0; i < q.head().arity(); ++i) {
      Term t = q.head().args[i];
      head_row[i] =
          t.is_const() ? ValueOfConstant(cat, t.constant()) : row[t.var()];
    }
    out.Add(head_row);
  }
  out.SortDedup();
  return out;
}

Result<Relation> EvaluateUnion(const UnionQuery& u, const Database& db,
                               const EvalOptions& options, EvalStats* stats) {
  if (u.empty()) return Status::InvalidArgument("empty union");
  // One disjunct's answers are already deduplicated and sorted.
  if (u.size() == 1) return EvaluateQuery(u.disjuncts[0], db, options, stats);
  Relation out(u.disjuncts[0].head().pred, u.disjuncts[0].head().arity());
  // Disjuncts share the database's cached relation indexes: the first
  // disjunct to touch a (relation, key-columns) pair builds, the rest hit
  // (EvalStats::index_hits counts the reuse).
  for (const Query& d : u.disjuncts) {
    AQV_ASSIGN_OR_RETURN(Relation r, EvaluateQuery(d, db, options, stats));
    if (r.arity() != out.arity()) {
      return Status::InvalidArgument("union disjunct arity mismatch");
    }
    for (size_t i = 0; i < r.size(); ++i) out.AppendRowFrom(r, i);
  }
  out.SortDedup();
  return out;
}

}  // namespace aqv
