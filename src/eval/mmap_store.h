/// \file
/// The read-only mmap ColumnStore backend: a persisted columnar segment
/// file (storage/segment.h layout — column-major Values after a fixed
/// header) mapped into the address space and served to the evaluator
/// through the same `Column()` contract as the in-memory backend, so
/// extents far larger than RAM join, index, and answer unchanged. Pages
/// fault in lazily on first touch and the kernel reclaims them under
/// pressure, which is what keeps resident memory bounded by the *touched*
/// row set rather than the file size (bench_f12_storage measures this).
///
/// Mutation upgrades the store: the first Append/Rewrite/Clear
/// materializes every column into private heap vectors and drops this
/// store's reference to the mapping (copy-on-write at store granularity —
/// mutating one Relation copy never disturbs another). Clone() before any
/// mutation shares the mapping, so the relation copies in the merged
/// database a partial rewriting evaluates over stay O(1) in file bytes.

#ifndef AQV_EVAL_MMAP_STORE_H_
#define AQV_EVAL_MMAP_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "eval/storage.h"
#include "util/status.h"

namespace aqv {

/// \brief A read-only memory-mapped file (ursadb's MemMap shape): the
/// whole file mapped PROT_READ, the descriptor closed immediately after
/// mapping so an open mapping holds pages but no fd. Shared by every
/// MmapStore cut from the file; the mapping unmaps when the last
/// reference drops.
class MemMap {
 public:
  /// Maps `path` read-only. Fails with kNotFound when the file does not
  /// exist and kInternal on any other open/map error; empty files map
  /// with data() == nullptr.
  [[nodiscard]] static Result<std::shared_ptr<const MemMap>> Open(const std::string& path);

  ~MemMap();
  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MemMap(std::string path, const uint8_t* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  const uint8_t* data_;
  size_t size_;
};

/// \brief A ColumnStore view over `rows` x `arity` column-major Values
/// starting `offset` bytes into `map`. Preconditions (the storage layer
/// validates them against the segment header before calling): arity >= 1,
/// offset is 8-byte aligned, and offset + arity*rows*sizeof(Value) <=
/// map->size().
std::unique_ptr<ColumnStore> MakeMmapStore(std::shared_ptr<const MemMap> map,
                                           size_t offset, int arity,
                                           size_t rows);

}  // namespace aqv

#endif  // AQV_EVAL_MMAP_STORE_H_
