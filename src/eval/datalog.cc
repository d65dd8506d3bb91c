#include "eval/datalog.h"

#include <algorithm>
#include <map>
#include <vector>

#include "util/hash.h"
#include "util/id_table.h"

namespace aqv {

namespace {

/// One derived predicate's distinct rows, row-major in first-derived order.
struct DerivedRows {
  size_t arity = 0;
  size_t count = 0;
  std::vector<Value> rows;
  /// Row ids, keyed by the rows' values.
  IdTable seen;
  /// The result holds a relation for the predicate: a row was derived, or
  /// a rule for it read an empty extent.
  bool present = false;
};

uint64_t RowHash(const Value* row, size_t arity) {
  Fnv1a h;
  for (size_t c = 0; c < arity; ++c) h.Mix(static_cast<uint64_t>(row[c]));
  return h.hash();
}

}  // namespace

Result<Database> ApplyInverseRules(const InverseRuleSet& rules,
                                   const Database& view_extents,
                                   SkolemTable* skolems,
                                   const EvalOptions& options) {
  (void)options;
  const Catalog& cat = *view_extents.catalog();
  std::map<PredId, DerivedRows> derived;
  // Per-rule scratch. Every variable a rule's head or Skolem parameters
  // read occurs in its view atom (BuildInverseRules draws both from the
  // view's head), so each reads the extent column of its first occurrence
  // there.
  std::vector<int> first_col;
  std::vector<const Value*> cols;
  std::vector<Value> params;

  for (const InverseRule& rule : rules.rules) {
    DerivedRows& dst = derived[rule.head_pred];
    dst.arity = rule.head_args.size();
    const Relation* extent = view_extents.Find(rule.view_atom.pred);
    if (extent == nullptr || extent->empty()) {
      dst.present = true;  // derived relation exists, empty
      continue;
    }
    const std::vector<Term>& pattern = rule.view_atom.args;
    first_col.assign(rule.var_names.size(), -1);
    for (int c = static_cast<int>(pattern.size()) - 1; c >= 0; --c) {
      if (pattern[c].is_var()) first_col[pattern[c].var()] = c;
    }
    cols.resize(pattern.size());
    for (size_t c = 0; c < pattern.size(); ++c) {
      cols[c] = extent->ColumnData(static_cast<int>(c));
    }
    params.resize(rule.skolem_params.size());
    // The value `t` takes in extent row `r`.
    auto value_of = [&](Term t, size_t r) {
      return t.is_const() ? ValueOfConstant(cat, t.constant())
                          : cols[first_col[t.var()]][r];
    };

    for (size_t r = 0; r < extent->size(); ++r) {
      // The view atom's constants and repeated variables filter the rows.
      bool ok = true;
      for (size_t c = 0; c < pattern.size() && ok; ++c) {
        ok = cols[c][r] == value_of(pattern[c], r);
      }
      if (!ok) continue;
      for (size_t k = 0; k < params.size(); ++k) {
        params[k] = cols[first_col[rule.skolem_params[k]]][r];
      }
      // Write the head row at the end of the buffer; drop it again if an
      // equal row was derived before.
      const size_t start = dst.rows.size();
      for (const InverseArg& a : rule.head_args) {
        dst.rows.push_back(
            a.is_skolem()
                ? skolems->Intern(a.skolem_fn, params.data(), params.size())
                : value_of(a.term, r));
      }
      const Value* row = dst.rows.data() + start;
      const Value* base = dst.rows.data();
      const size_t width = dst.arity;
      uint32_t earlier =
          dst.seen.Find(RowHash(row, width), [&](uint32_t id) {
            return std::equal(row, row + width, base + id * width);
          });
      if (earlier != IdTable::kNone) {
        dst.rows.resize(start);
        continue;
      }
      dst.seen.Insert(static_cast<uint32_t>(dst.count++), [&](uint32_t id) {
        return RowHash(base + id * width, width);
      });
      dst.present = true;
    }
  }

  Database out(view_extents.catalog());
  for (const auto& [pred, rows] : derived) {
    if (!rows.present) continue;
    Relation* rel = out.GetOrCreate(pred);
    rel->Reserve(rows.count);
    for (size_t i = 0; i < rows.count; ++i) {
      rel->AddRow(rows.rows.data() + i * rows.arity);
    }
  }
  return out;
}

}  // namespace aqv
