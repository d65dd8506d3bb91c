/// \file
/// The on-disk columnar segment format — one file per persisted relation,
/// designed to be mmap-served without translation:
///
///   offset 0   8 bytes   magic "AQVSEG1\0"
///   offset 8   u32       arity (>= 1)
///   offset 12  u32       flags (bit 0: rows are sorted+deduplicated)
///   offset 16  u64       row count
///   offset 24  u32       CRC-32 of the data section
///   offset 28  36 bytes  zero padding (header is 64 bytes, so the data
///                        section stays 8-byte aligned for direct Value
///                        access)
///   offset 64  data      arity x rows Values, column-major, native
///                        byte order (int64 little-endian on every
///                        supported target)
///
/// Values are stored raw — including symbolic-constant tags
/// (kSymbolicBase + ConstId) — so a segment is only meaningful next to
/// the manifest that pins the catalog's constant-interning order
/// (storage/manifest.h). Segment files are immutable once written:
/// snapshots write new generation-stamped files and the manifest swap
/// publishes them (storage/store.h).

#ifndef AQV_STORAGE_SEGMENT_H_
#define AQV_STORAGE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "cq/term.h"
#include "eval/relation.h"
#include "util/status.h"

namespace aqv {

inline constexpr size_t kSegmentHeaderSize = 64;

/// Decoded segment header.
struct SegmentInfo {
  int arity = 0;
  uint64_t rows = 0;
  bool sorted = false;
  uint32_t data_crc = 0;
};

/// Serializes `rel` (arity >= 1) into segment-file bytes.
std::string EncodeSegment(const Relation& rel);

/// Validates the magic, header geometry (header + arity*rows Values ==
/// `size`), and — when `verify_checksum` — the data CRC. kParseError on
/// any mismatch (a torn or foreign file must never be installed).
[[nodiscard]] Result<SegmentInfo> ParseSegmentHeader(const uint8_t* data, size_t size,
                                       bool verify_checksum);

/// Loads the segment at `path` as a Relation for predicate `pred`, backed
/// by the read-only mmap store (eval/mmap_store.h): the file pages in
/// lazily and stays on disk. `expected_crc` cross-checks the header CRC
/// against the manifest entry (detecting a wrong-file swap, not just torn
/// bytes).
[[nodiscard]] Result<Relation> LoadSegment(const std::string& path, PredId pred,
                             uint32_t expected_crc, bool verify_checksum);

}  // namespace aqv

#endif  // AQV_STORAGE_SEGMENT_H_
