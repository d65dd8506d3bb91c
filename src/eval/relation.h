#ifndef AQV_EVAL_RELATION_H_
#define AQV_EVAL_RELATION_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cq/catalog.h"
#include "eval/index.h"
#include "eval/storage.h"
#include "eval/value.h"

namespace aqv {

/// \brief An in-memory relation instance over a pluggable ColumnStore.
///
/// Physical layout is columnar (storage.h); the historical row-major API
/// (`at`, `RowCopy`, `Rows`) is preserved as an adapter over it, while hot
/// paths read whole columns via `ColumnData`. On top of storage the
/// relation owns two lazily built, cached derived structures:
///
///   - hash indexes per join-key column set (`IndexOn`) — built once,
///     shared via shared_ptr across the join pipeline, MaterializeViews,
///     union disjuncts, relation copies, and repeated `answer` commands;
///   - measured statistics (`Measured`) — cardinality, per-column
///     distinct counts, and numeric min/max — feeding the planner's cost
///     model through ExtentStats::FromDatabase.
///
/// Both caches are invalidated by any mutation (Add/AddRow/AppendRowFrom/
/// SortDedup). Thread-safety contract: concurrent *reads* (including the
/// lazy cache builds, which serialize on an internal mutex) are safe;
/// mutation must not overlap any other access — the same contract the raw
/// tuple data always had ("evaluation never mutates the database").
class Relation {
 public:
  Relation() = default;
  Relation(PredId pred, int arity);

  /// Adopts an existing store (arity >= 1) — how the storage engine
  /// installs persisted extents behind an mmap or columnar backend.
  /// `sorted` asserts the rows are lexicographically sorted+deduplicated
  /// (recorded in the segment header at save time).
  Relation(PredId pred, int arity, std::unique_ptr<ColumnStore> store,
           bool sorted);

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  PredId pred() const { return pred_; }
  int arity() const { return arity_; }
  size_t size() const {
    if (arity_ == 0) return nullary_present_ ? 1 : 0;
    return store_ == nullptr ? 0 : store_->rows();
  }
  bool empty() const { return size() == 0; }

  /// Appends a row. Precondition: row.size() == arity().
  void Add(const std::vector<Value>& row);

  /// Appends a row from a raw pointer of arity() values.
  void AddRow(const Value* row);

  /// Appends row `i` of `src` (same arity) column-wise.
  void AppendRowFrom(const Relation& src, size_t i);

  /// Hints the expected final row count (bulk loads).
  void Reserve(size_t n);

  Value at(size_t i, int col) const { return store_->Column(col)[i]; }

  /// Contiguous data of column `c` (arity() > 0). Valid until the next
  /// mutation.
  const Value* ColumnData(int c) const { return store_->Column(c); }

  /// Row-major adapter: row `i` materialized (undefined for arity 0).
  std::vector<Value> RowCopy(size_t i) const;

  /// Sorts rows lexicographically and removes duplicates. Marks the
  /// relation sorted and invalidates cached indexes/statistics.
  void SortDedup();

  /// True when the rows are known lexicographically sorted + deduplicated
  /// (i.e. SortDedup ran after the last mutation; trivially true while
  /// the relation holds at most one row).
  bool sorted() const { return sorted_; }

  /// Membership test: binary search on sorted relations, linear fallback
  /// otherwise.
  bool Contains(const std::vector<Value>& row) const;

  /// All rows, materialized (test convenience).
  std::vector<std::vector<Value>> Rows() const;

  /// True if both relations hold the same set of rows (sorts copies).
  static bool SameSet(const Relation& a, const Relation& b);

  std::string ToString(const Catalog& catalog,
                       const SkolemTable* skolems = nullptr) const;

  /// \brief The cached hash index on `columns` (strictly ascending
  /// positions, non-empty), building it on first request. `*built` (when
  /// non-null) reports whether this call built the index (true) or hit
  /// the cache (false). Safe to call concurrently.
  std::shared_ptr<const HashIndex> IndexOn(const std::vector<int>& columns,
                                           bool* built = nullptr) const;

  /// Number of distinct column sets currently indexed (diagnostics).
  size_t CachedIndexCount() const;

  /// \brief Measured statistics, computed on first demand after the last
  /// mutation and cached. Safe to call concurrently.
  std::shared_ptr<const RelationStats> Measured() const;

  /// The storage backend name ("columnar"; "none" before first touch).
  const char* StorageBackend() const {
    return store_ == nullptr ? "none" : store_->Backend();
  }

 private:
  /// Lexicographic compare of row `i` against `row`: -1/0/+1.
  int CompareRow(size_t i, const std::vector<Value>& row) const;

  /// Drops cached indexes and statistics (call on every mutation; not
  /// locked — mutation must not overlap other access, see class comment).
  void InvalidateDerived();

  PredId pred_ = -1;
  int arity_ = 0;
  bool nullary_present_ = false;  // arity-0 relations hold 0 or 1 rows
  bool sorted_ = true;            // vacuously sorted while <= 1 row
  std::unique_ptr<ColumnStore> store_;

  // Lazily built caches. The mutex serializes concurrent readers doing a
  // lazy build; immutable snapshots are handed out as shared_ptr so a
  // build in one evaluation outlives cache invalidation in another
  // relation copy.
  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<int>, std::shared_ptr<const HashIndex>>
      indexes_;
  mutable std::shared_ptr<const RelationStats> stats_;
};

}  // namespace aqv

#endif  // AQV_EVAL_RELATION_H_
