/// \file
/// IdTable: an open-addressing hash set of uint32 ids whose keys live
/// outside it. The caller keeps the keyed data (rows in one flat buffer,
/// argument tuples in one arena) and passes each key's hash and an
/// equality test on ids, so neither a lookup nor an insert allocates a
/// key. The evaluator's live-row deduplication, the inverse-rules route's
/// derived-row deduplication and Skolem interning all probe through it.

#ifndef AQV_UTIL_ID_TABLE_H_
#define AQV_UTIL_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aqv {

/// \brief Linear-probing set of uint32 ids, kept at most half full.
///
/// Usage: `Find` with the probe's hash and a test `same(id)` for "the
/// stored key `id` equals the probe"; when it returns kNone, `Insert` the
/// probe's new id into the slot that Find stopped at. No other call may
/// come between the two.
class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  IdTable() { Clear(0); }

  /// Drops every id and sizes the table to take `expected` ids without
  /// growing (reusing the slot buffer's capacity).
  void Clear(size_t expected) {
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    slots_.assign(capacity, kNone);
    size_ = 0;
  }

  /// The stored id that `same` accepts on `hash`'s probe sequence, or
  /// kNone, remembering the free slot where the next Insert goes.
  template <typename Same>
  uint32_t Find(uint64_t hash, Same same) {
    const size_t mask = slots_.size() - 1;
    size_t slot = Fold(hash) & mask;
    while (slots_[slot] != kNone) {
      if (same(slots_[slot])) return slots_[slot];
      slot = (slot + 1) & mask;
    }
    free_slot_ = slot;
    return kNone;
  }

  /// Stores `id` in the slot the last Find (which returned kNone) stopped
  /// at. Once the table is half full it doubles, re-placing every stored
  /// id by `hash_of(id)`.
  template <typename HashOf>
  void Insert(uint32_t id, HashOf hash_of) {
    slots_[free_slot_] = id;
    if (2 * ++size_ <= slots_.size()) return;
    std::vector<uint32_t> old(slots_.size() * 2, kNone);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (uint32_t stored : old) {
      if (stored == kNone) continue;
      size_t slot = Fold(hash_of(stored)) & mask;
      while (slots_[slot] != kNone) slot = (slot + 1) & mask;
      slots_[slot] = stored;
    }
  }

 private:
  /// FNV's multiply only carries entropy upward; fold the high half down
  /// before masking the low bits.
  static size_t Fold(uint64_t hash) {
    return static_cast<size_t>(hash ^ (hash >> 32));
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
  size_t free_slot_ = 0;
};

}  // namespace aqv

#endif  // AQV_UTIL_ID_TABLE_H_
