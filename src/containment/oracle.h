/// \file
/// Memoized containment oracle: an opt-in cache that a caller may route a
/// pipeline's IsContainedIn / AreEquivalent calls through. The serving
/// path does not use one — the server and the service decide every
/// containment check directly, because encoding, hashing and storing
/// each pair costs more than the homomorphism search it saves on their
/// workloads. The differential mirror (testing/differential.h) and the
/// end-to-end benchmark's in-process replays do, so every replay
/// byte-compares memoized decisions against the server's direct ones.
///
/// Entries are keyed by 64-bit hashes of the (sub, super)
/// *catalog-independent canonical encodings* (GlobalCanonicalEncoding in
/// cq/query.h) and confirmed by exact encoding comparison, so a cache hit
/// is always sound — hash collisions degrade to misses, never to wrong
/// answers. Because the encodings name predicates and constants by their
/// process-global interned ids (cq/global_symbols.h) rather than
/// catalog-local dense ids, entries carry no catalog pointer and survive
/// the catalogs that produced them, and structurally-identical queries
/// parsed into different catalogs hit each other's entries. Wire an
/// oracle into a pipeline by setting ContainmentOptions::oracle (or
/// EngineOptions::oracle); every IsContainedIn call that threads those
/// options (minimization, candidate verification, subsumption pruning)
/// then shares one cache. Bucket's comparison-free combination checks
/// search atom spans directly (homomorphism.h) and never reach it.
///
/// Thread safety: the oracle is internally sharded — both the form cache
/// and the decision cache are sliced by fingerprint across `num_shards`
/// shards, each guarded by its own mutex and holding its own slice of the
/// entry budget — so any number of threads may call IsContainedIn on one
/// shared oracle concurrently. Stats counters are relaxed atomics: exact
/// under a single thread, and never torn (only momentarily inconsistent
/// relative to each other) under many. Clear() and ResetStats() are the
/// only exceptions: they must not race concurrent lookups.

#ifndef AQV_CONTAINMENT_ORACLE_H_
#define AQV_CONTAINMENT_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "util/status.h"

namespace aqv {

/// Hit/miss/budget counters of one ContainmentOracle (a plain-value
/// snapshot; the live counters inside the oracle are per-shard atomics).
struct OracleStats {
  /// Lookups answered from the cache.
  uint64_t hits = 0;
  /// Lookups that fell through to a real containment decision.
  uint64_t misses = 0;
  /// Entries added to the cache (misses minus capacity rejections and
  /// non-OK decisions, which are never cached).
  uint64_t inserts = 0;
  /// Results not cached because the shard's entry budget was full.
  uint64_t capacity_rejects = 0;
  /// Bucket probes whose key hash matched but whose canonical-encoding
  /// confirmation failed (true 64-bit collisions or same-key distinct
  /// pairs) — the soundness guard firing.
  uint64_t confirm_failures = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / lookups();
  }
};

/// Counter-wise difference (for per-request deltas of a shared oracle).
OracleStats operator-(const OracleStats& after, const OracleStats& before);

/// \brief Memoizes containment decisions for as long as its owner keeps
/// it, safely shareable across threads and across catalogs.
///
/// The key of a (sub, super) pair combines the hashes of the two
/// catalog-independent canonical encodings; each bucket holds the
/// encodings of the pairs that produced it, so renamings, body
/// reorderings, *and re-parses into fresh catalogs* of an already-decided
/// pair hit without a new homomorphism search. Only OK results are cached
/// — kResourceExhausted under one budget must stay retryable under
/// another.
///
/// Sharding: shard index = key >> (64 - log2(num_shards_rounded_up)), i.e.
/// the top key bits slice both caches. With `num_shards == 1` (the
/// default) behavior — decisions, stats totals, capacity behavior — is
/// identical to the pre-sharding single-threaded oracle. With N shards the
/// entry budget is split evenly (ceil(max_entries / N) per shard), so
/// capacity_rejects can differ across shard counts once a shard fills;
/// decisions never differ (the cache is pure).
///
/// Lifetime: entries reference no catalog (symbols appear as process-global
/// interned ids), so catalogs may be created and destroyed freely while an
/// oracle lives — the former catalogs-must-outlive-the-oracle contract is
/// gone. Soundness across catalogs: equal canonical encodings imply the
/// queries are isomorphic under the meaning-preserving symbol bijection
/// ((name, arity) for predicates, source text for constants), and
/// containment is invariant under that bijection.
class ContainmentOracle {
 public:
  /// `max_entries` bounds total cache growth across all shards; past a
  /// shard's slice of it, results are still computed and returned but no
  /// longer cached (capacity_rejects counts them). `num_shards` is clamped
  /// to [1, 256] and rounded up to a power of two.
  explicit ContainmentOracle(size_t max_entries = size_t{1} << 20,
                             size_t num_shards = 1);

  ContainmentOracle(const ContainmentOracle&) = delete;
  ContainmentOracle& operator=(const ContainmentOracle&) = delete;

  /// Memoized `sub ⊑ super`. `options.oracle` is ignored here (the raw
  /// decision always runs uncached; no recursion). Equivalence and the
  /// union variants need no oracle entry points: the free functions route
  /// through here whenever ContainmentOptions::oracle is set. Safe to call
  /// from any number of threads concurrently.
  [[nodiscard]] Result<bool> IsContainedIn(const Query& sub, const Query& super,
                             const ContainmentOptions& options);

  /// Aggregated snapshot of the per-shard atomic counters. Exact when no
  /// lookup is in flight; under concurrency each counter is itself exact
  /// (relaxed atomic), but the snapshot may straddle an in-flight lookup.
  OracleStats stats() const;
  /// Zeroes the counters. Must not race concurrent lookups.
  void ResetStats();

  /// Number of cached entries (summed across shards).
  size_t size() const;
  size_t max_entries() const { return max_entries_; }
  size_t num_shards() const { return shards_.size(); }

  /// Drops all entries (stats are kept; ResetStats clears those). Must not
  /// race concurrent lookups: FormOf references handed out earlier die.
  void Clear();

 private:
  /// One memoized decision: the catalog-independent canonical encodings of
  /// the pair (the confirmation key — plain word-vector equality, no
  /// catalog pointer) and the cached verdict.
  struct Entry {
    std::vector<uint64_t> sub_canon;
    std::vector<uint64_t> super_canon;
    bool contained;
  };

  /// One canonicalization memo: the verbatim (raw) encoding identifying
  /// the exact input query, its canonical encoding, and the canonical
  /// hash, cached so hits pay neither re-canonicalization nor re-hash.
  struct FormEntry {
    std::vector<uint64_t> raw;
    std::vector<uint64_t> canon;
    uint64_t canon_hash;
  };

  /// One lock domain: a slice of the form cache and of the decision cache,
  /// with its own share of the entry budget. Heap-allocated (the mutex
  /// pins it) and padded-by-allocation against false sharing.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<std::unique_ptr<FormEntry>>>
        forms;
    std::unordered_map<uint64_t, std::vector<Entry>> cache;
    size_t form_entries = 0;
    size_t entries = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> capacity_rejects{0};
    std::atomic<uint64_t> confirm_failures{0};
  };

  Shard& ShardFor(uint64_t key) const {
    // Top bits: the keys are well-mixed 64-bit hashes, and the low bits
    // already pick the unordered_map bucket inside the shard.
    return *shards_[(key >> shard_shift_) & shard_mask_];
  }

  /// Canonical encoding (plus its hash) of `q`, served from the sharded
  /// form cache when the exact same query (verbatim raw-encoding match,
  /// across any catalog) was canonicalized before — the common case for
  /// the fixed outer query and for recurring expansions. The returned
  /// reference is stable until Clear() (entries are heap-allocated and
  /// never evicted); past the shard's entry budget the encoding is
  /// computed into `*scratch` instead.
  const FormEntry& FormOf(const Query& q, FormEntry* scratch);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t max_entries_;
  size_t per_shard_budget_;
  uint64_t shard_mask_;
  unsigned shard_shift_;
};

}  // namespace aqv

#endif  // AQV_CONTAINMENT_ORACLE_H_
