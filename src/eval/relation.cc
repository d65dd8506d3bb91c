#include "eval/relation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

namespace aqv {

Relation::Relation(PredId pred, int arity) : pred_(pred), arity_(arity) {
  if (arity_ > 0) store_ = MakeColumnarStore(arity_);
}

Relation::Relation(PredId pred, int arity, std::unique_ptr<ColumnStore> store,
                   bool sorted)
    : pred_(pred), arity_(arity), store_(std::move(store)) {
  assert(arity_ >= 1);
  assert(store_ != nullptr && store_->arity() == arity_);
  sorted_ = sorted || store_->rows() <= 1;
}

Relation::Relation(const Relation& other)
    : pred_(other.pred_),
      arity_(other.arity_),
      nullary_present_(other.nullary_present_),
      sorted_(other.sorted_) {
  if (other.store_ != nullptr) store_ = other.store_->Clone();
  // Cached indexes and stats are immutable snapshots of the same rows, so
  // the copy may share them (the merged database a partial rewriting
  // evaluates over keeps its copied relations' indexes warm).
  std::lock_guard<std::mutex> lock(other.cache_mu_);
  indexes_ = other.indexes_;
  stats_ = other.stats_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  Relation copy(other);
  *this = std::move(copy);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : pred_(other.pred_),
      arity_(other.arity_),
      nullary_present_(other.nullary_present_),
      sorted_(other.sorted_),
      store_(std::move(other.store_)),
      indexes_(std::move(other.indexes_)),
      stats_(std::move(other.stats_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  pred_ = other.pred_;
  arity_ = other.arity_;
  nullary_present_ = other.nullary_present_;
  sorted_ = other.sorted_;
  store_ = std::move(other.store_);
  indexes_ = std::move(other.indexes_);
  stats_ = std::move(other.stats_);
  return *this;
}

void Relation::InvalidateDerived() {
  if (!indexes_.empty()) indexes_.clear();
  if (stats_ != nullptr) stats_ = nullptr;
}

void Relation::Add(const std::vector<Value>& row) {
  assert(static_cast<int>(row.size()) == arity_);
  AddRow(row.data());
}

void Relation::AddRow(const Value* row) {
  InvalidateDerived();
  if (arity_ == 0) {
    nullary_present_ = true;
    return;
  }
  if (store_ == nullptr) store_ = MakeColumnarStore(arity_);
  store_->Append(row);
  sorted_ = store_->rows() <= 1;
}

void Relation::AppendRowFrom(const Relation& src, size_t i) {
  assert(src.arity_ == arity_);
  InvalidateDerived();
  if (arity_ == 0) {
    nullary_present_ = true;
    return;
  }
  if (store_ == nullptr) store_ = MakeColumnarStore(arity_);
  std::vector<Value> row(static_cast<size_t>(arity_));
  for (int c = 0; c < arity_; ++c) row[static_cast<size_t>(c)] = src.at(i, c);
  store_->Append(row.data());
  sorted_ = store_->rows() <= 1;
}

void Relation::Reserve(size_t n) {
  if (arity_ == 0) return;
  if (store_ == nullptr) store_ = MakeColumnarStore(arity_);
  store_->Reserve(n);
}

std::vector<Value> Relation::RowCopy(size_t i) const {
  std::vector<Value> out(static_cast<size_t>(arity_));
  for (int c = 0; c < arity_; ++c) out[static_cast<size_t>(c)] = at(i, c);
  return out;
}

void Relation::SortDedup() {
  InvalidateDerived();
  if (arity_ == 0) {
    sorted_ = true;
    return;
  }
  size_t n = size();
  assert(n < std::numeric_limits<uint32_t>::max());
  std::vector<const Value*> cols(static_cast<size_t>(arity_));
  for (int c = 0; c < arity_; ++c) cols[static_cast<size_t>(c)] = ColumnData(c);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  auto less = [&](uint32_t a, uint32_t b) {
    for (int c = 0; c < arity_; ++c) {
      Value va = cols[static_cast<size_t>(c)][a];
      Value vb = cols[static_cast<size_t>(c)][b];
      if (va != vb) return va < vb;
    }
    return false;
  };
  auto equal = [&](uint32_t a, uint32_t b) {
    for (int c = 0; c < arity_; ++c) {
      if (cols[static_cast<size_t>(c)][a] != cols[static_cast<size_t>(c)][b]) {
        return false;
      }
    }
    return true;
  };
  std::sort(order.begin(), order.end(), less);
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && equal(order[i], order[i - 1])) continue;
    keep.push_back(order[i]);
  }
  store_->Rewrite(keep);
  sorted_ = true;
}

int Relation::CompareRow(size_t i, const std::vector<Value>& row) const {
  for (int c = 0; c < arity_; ++c) {
    Value v = at(i, c);
    Value t = row[static_cast<size_t>(c)];
    if (v < t) return -1;
    if (v > t) return 1;
  }
  return 0;
}

bool Relation::Contains(const std::vector<Value>& row) const {
  if (arity_ == 0) return nullary_present_;
  size_t n = size();
  if (sorted_) {
    // Lexicographic binary search over the sorted, deduplicated rows.
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      int cmp = CompareRow(mid, row);
      if (cmp == 0) return true;
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (CompareRow(i, row) == 0) return true;
  }
  return false;
}

std::vector<std::vector<Value>> Relation::Rows() const {
  std::vector<std::vector<Value>> out;
  if (arity_ == 0) {
    if (nullary_present_) out.push_back({});
    return out;
  }
  size_t n = size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(RowCopy(i));
  return out;
}

bool Relation::SameSet(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity()) return false;
  Relation ca = a, cb = b;
  ca.SortDedup();
  cb.SortDedup();
  if (ca.size() != cb.size()) return false;
  if (a.arity() == 0) return true;
  for (size_t i = 0; i < ca.size(); ++i) {
    for (int c = 0; c < ca.arity(); ++c) {
      if (ca.at(i, c) != cb.at(i, c)) return false;
    }
  }
  return true;
}

std::string Relation::ToString(const Catalog& catalog,
                               const SkolemTable* skolems) const {
  std::string out;
  if (arity_ == 0) return nullary_present_ ? "{()}\n" : "{}\n";
  for (size_t i = 0; i < size(); ++i) {
    out += "(";
    for (int c = 0; c < arity_; ++c) {
      if (c > 0) out += ", ";
      out += ValueToString(catalog, at(i, c), skolems);
    }
    out += ")\n";
  }
  return out;
}

std::shared_ptr<const HashIndex> Relation::IndexOn(
    const std::vector<int>& columns, bool* built) const {
  assert(!columns.empty());
  assert(std::is_sorted(columns.begin(), columns.end()));
  assert(columns.back() < arity_);
  if (built != nullptr) *built = false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = indexes_.find(columns);
  if (it != indexes_.end()) return it->second;

  auto index = std::make_shared<HashIndex>();
  index->columns = columns;
  size_t n = size();
  assert(n < std::numeric_limits<uint32_t>::max());
  index->rows_indexed = n;
  index->postings.reserve(n);
  std::vector<const Value*> cols(columns.size());
  for (size_t k = 0; k < columns.size(); ++k) {
    cols[k] = ColumnData(columns[k]);
  }
  std::vector<Value> key(columns.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < columns.size(); ++k) key[k] = cols[k][r];
    index->postings[key].push_back(static_cast<uint32_t>(r));
  }
  indexes_.emplace(columns, index);
  if (built != nullptr) *built = true;
  return index;
}

size_t Relation::CachedIndexCount() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return indexes_.size();
}

std::shared_ptr<const RelationStats> Relation::Measured() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (stats_ != nullptr) return stats_;
  auto stats = std::make_shared<RelationStats>();
  stats->cardinality = size();
  stats->columns.resize(static_cast<size_t>(arity_));
  size_t n = size();
  for (int c = 0; c < arity_; ++c) {
    RelationStats::Column& col = stats->columns[static_cast<size_t>(c)];
    if (n == 0) continue;
    const Value* data = ColumnData(c);
    std::vector<Value> values(data, data + n);
    std::sort(values.begin(), values.end());
    col.distinct = 1;
    for (size_t i = 1; i < n; ++i) {
      if (values[i] != values[i - 1]) ++col.distinct;
    }
    for (Value v : values) {
      if (!IsPlainNumeric(v)) continue;
      if (!col.has_numeric_range) {
        col.min = col.max = v;
        col.has_numeric_range = true;
      } else {
        col.min = std::min(col.min, v);
        col.max = std::max(col.max, v);
      }
    }
  }
  stats_ = std::move(stats);
  return stats_;
}

}  // namespace aqv
