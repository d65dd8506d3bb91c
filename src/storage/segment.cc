#include "storage/segment.h"

#include <cstring>

#include "eval/mmap_store.h"
#include "eval/value.h"
#include "storage/fs.h"

namespace aqv {

namespace {

constexpr char kMagic[8] = {'A', 'Q', 'V', 'S', 'E', 'G', '1', '\0'};
constexpr uint32_t kFlagSorted = 1u << 0;

template <typename T>
void PutLE(std::string* out, size_t offset, T value) {
  std::memcpy(&(*out)[offset], &value, sizeof(T));
}

template <typename T>
T GetLE(const uint8_t* data, size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

}  // namespace

std::string EncodeSegment(const Relation& rel) {
  int arity = rel.arity();
  size_t rows = rel.size();
  size_t data_bytes = static_cast<size_t>(arity) * rows * sizeof(Value);
  std::string out(kSegmentHeaderSize + data_bytes, '\0');
  std::memcpy(&out[0], kMagic, sizeof(kMagic));
  PutLE<uint32_t>(&out, 8, static_cast<uint32_t>(arity));
  PutLE<uint32_t>(&out, 12, rel.sorted() ? kFlagSorted : 0);
  PutLE<uint64_t>(&out, 16, rows);
  size_t offset = kSegmentHeaderSize;
  for (int c = 0; c < arity; ++c) {
    if (rows > 0) {
      std::memcpy(&out[offset], rel.ColumnData(c), rows * sizeof(Value));
    }
    offset += rows * sizeof(Value);
  }
  PutLE<uint32_t>(&out, 24,
                  Crc32(out.data() + kSegmentHeaderSize, data_bytes));
  return out;
}

Result<SegmentInfo> ParseSegmentHeader(const uint8_t* data, size_t size,
                                       bool verify_checksum) {
  if (size < kSegmentHeaderSize) {
    return Status::ParseError("segment file shorter than its header (" +
                              std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("segment file has a bad magic");
  }
  SegmentInfo info;
  uint32_t arity = GetLE<uint32_t>(data, 8);
  uint32_t flags = GetLE<uint32_t>(data, 12);
  info.rows = GetLE<uint64_t>(data, 16);
  info.data_crc = GetLE<uint32_t>(data, 24);
  if (arity < 1 || arity > (1u << 20)) {
    return Status::ParseError("segment arity " + std::to_string(arity) +
                              " out of range");
  }
  info.arity = static_cast<int>(arity);
  info.sorted = (flags & kFlagSorted) != 0;
  uint64_t data_bytes =
      static_cast<uint64_t>(info.arity) * info.rows * sizeof(Value);
  if (size != kSegmentHeaderSize + data_bytes) {
    return Status::ParseError(
        "segment size mismatch: header claims " +
        std::to_string(kSegmentHeaderSize + data_bytes) + " bytes, file has " +
        std::to_string(size));
  }
  if (verify_checksum &&
      Crc32(data + kSegmentHeaderSize, static_cast<size_t>(data_bytes)) !=
          info.data_crc) {
    return Status::ParseError("segment data checksum mismatch");
  }
  return info;
}

Result<Relation> LoadSegment(const std::string& path, PredId pred,
                             uint32_t expected_crc, bool verify_checksum) {
  AQV_ASSIGN_OR_RETURN(std::shared_ptr<const MemMap> map, MemMap::Open(path));
  AQV_ASSIGN_OR_RETURN(
      SegmentInfo info,
      ParseSegmentHeader(map->data(), map->size(), verify_checksum));
  if (info.data_crc != expected_crc) {
    return Status::ParseError("segment '" + path +
                              "' does not match its manifest checksum");
  }
  return Relation(pred, info.arity,
                  MakeMmapStore(std::move(map), kSegmentHeaderSize,
                                info.arity, info.rows),
                  info.sorted);
}

}  // namespace aqv
