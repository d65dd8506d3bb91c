/// \file
/// The FNV-1a 64-bit mixer shared by every structural hash in the library
/// (query encoding hashes, colour refinement, candidate fingerprints) —
/// one definition of the constants and mix step, so hardening tweaks land
/// everywhere at once.

#ifndef AQV_UTIL_HASH_H_
#define AQV_UTIL_HASH_H_

#include <cstdint>

namespace aqv {

/// Incremental FNV-1a over 64-bit words.
class Fnv1a {
 public:
  Fnv1a() = default;
  /// Starts from a custom seed instead of the offset basis (colour
  /// refinement chains the previous colour through).
  explicit Fnv1a(uint64_t seed) : state_(seed) {}

  void Mix(uint64_t v) { state_ = (state_ ^ v) * kPrime; }
  uint64_t hash() const { return state_; }

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  uint64_t state_ = kOffsetBasis;
};

}  // namespace aqv

#endif  // AQV_UTIL_HASH_H_
