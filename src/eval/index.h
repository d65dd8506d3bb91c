/// \file
/// Persistent per-relation hash indexes and measured statistics. A
/// HashIndex maps a key-column tuple to the (ascending) row ids holding
/// it; Relation builds one per distinct join-key column set on first
/// demand, caches it, and invalidates on mutation — so the join pipeline,
/// MaterializeViews, union disjuncts, and every `answer` over a session's
/// held extents probe the same build instead of rebuilding per query.
/// RelationStats carries the measured per-predicate numbers (cardinality,
/// per-column distinct counts, numeric min/max) that replace the
/// planner's uniform-domain fan-out guess.

#ifndef AQV_EVAL_INDEX_H_
#define AQV_EVAL_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "eval/value.h"

namespace aqv {

/// FNV-1a over a value tuple (the key hasher shared by index build and
/// probe).
struct RowKeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (Value v : key) {
      h = (h ^ static_cast<size_t>(v)) * 0x100000001b3ULL;
    }
    return h;
  }
};

/// \brief A hash index of one relation on a fixed set of key columns:
/// key tuple -> ascending row ids. Immutable once built (shared across
/// concurrent evaluations via shared_ptr).
struct HashIndex {
  /// Key column positions, strictly ascending.
  std::vector<int> columns;
  std::unordered_map<std::vector<Value>, std::vector<uint32_t>, RowKeyHash>
      postings;
  /// Rows scanned by the build (the relation's size at build time).
  uint64_t rows_indexed = 0;

  /// Row ids holding `key` (aligned with `columns`), or nullptr.
  const std::vector<uint32_t>* Find(const std::vector<Value>& key) const {
    auto it = postings.find(key);
    return it == postings.end() ? nullptr : &it->second;
  }
};

/// \brief Measured statistics of one relation, computed at SortDedup time
/// (or first demand) and surfaced to the planner through
/// ExtentStats::FromDatabase.
struct RelationStats {
  struct Column {
    /// Distinct values in the column.
    uint64_t distinct = 0;
    /// Min/max over the column's plain-numeric values (meaningless when
    /// has_numeric_range is false — symbolic/Skolem-only columns).
    Value min = 0;
    Value max = 0;
    bool has_numeric_range = false;
  };
  uint64_t cardinality = 0;
  std::vector<Column> columns;
};

}  // namespace aqv

#endif  // AQV_EVAL_INDEX_H_
