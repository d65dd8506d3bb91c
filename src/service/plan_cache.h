/// \file
/// Server-lifetime rewriting-plan cache: memoizes the *rendered outcome* of
/// a rewrite command — the exact payload text the frontend writes to the
/// wire, plus the engine counters of the run that produced it — keyed by
/// the complete problem statement. A key embeds the engine name, a digest
/// of every numeric engine option, and the verbatim rendered text of the
/// query and of every view in scope, so:
///
///   - a hit is byte-identical to recomputation: deterministic engines are
///     pure functions of (engine, options, query text, views text), which
///     is exactly the key — two sessions whose problems render identically
///     get identical payloads whether served from cache or computed;
///   - schema mutations invalidate implicitly: adding, dropping (reset),
///     or reloading views changes the views text, hence the key, hence
///     stale plans can never be returned — they merely age out of the
///     budget.
///
/// Thread safety: one mutex guards one map, capped at kMaxEntries plans;
/// any number of sessions may Lookup/Insert concurrently. Stats counters
/// are relaxed atomics. A session looks a problem up here at most once
/// per engine and problem version (its memo answers the repeats), so the
/// lock sees one lookup and at most one insert per engine run.
///
/// This is the server's only server-lifetime cache. It short-circuits the
/// entire engine search for exact repeats — the dominant pattern of a
/// dashboard or retry loop re-issuing one query; a miss runs the engine
/// with every containment check decided directly. A Session also keeps the
/// payloads it got here for its current problem, until its next mutation,
/// and answers a repeat from that memo with no key and no lookup
/// (CountHit counts it).

#ifndef AQV_SERVICE_PLAN_CACHE_H_
#define AQV_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "rewriting/engine.h"

namespace aqv {

/// Hit/miss counters of one RewritePlanCache (plain-value snapshot).
struct PlanCacheStats {
  /// Lookups answered from the cache.
  uint64_t hits = 0;
  /// Lookups that fell through to a real engine run.
  uint64_t misses = 0;
  /// Plans added to the cache.
  uint64_t inserts = 0;
  /// Plans not cached because the cache held kMaxEntries plans.
  uint64_t capacity_rejects = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / lookups();
  }
};

/// \brief Map from a rendered problem statement to its verified rewriting
/// payload.
class RewritePlanCache {
 public:
  /// One memoized rewrite outcome.
  struct Plan {
    /// The exact command payload (everything before the "ok" terminator)
    /// the populating run rendered.
    std::string rendered;
    /// Engine counters of the populating run, replayed into the session's
    /// last-rewrite stats so `show stats` stays meaningful on hits.
    RewriteStats stats;
  };

  /// The entry cap: past it, Insert becomes a counted no-op.
  static constexpr size_t kMaxEntries = size_t{1} << 16;

  RewritePlanCache() = default;

  RewritePlanCache(const RewritePlanCache&) = delete;
  RewritePlanCache& operator=(const RewritePlanCache&) = delete;

  /// Builds the canonical cache key for a problem statement. `views_text`
  /// must render every view in scope (order-sensitive — the session's
  /// definition order is deterministic); `options_digest` must cover every
  /// option that can change engine output (see Session's digest builder).
  static std::string MakeKey(const std::string& engine,
                             const std::string& options_digest,
                             const std::string& query_text,
                             const std::string& views_text);

  /// The cached plan for `key`, or nullopt (counting a hit or miss).
  std::optional<Plan> Lookup(const std::string& key);

  /// Caches `plan` under `key` unless the cache is full or the key is
  /// already present (first writer wins; identical keys imply identical
  /// plans, so dropping the duplicate is sound).
  void Insert(const std::string& key, Plan plan);

  /// Counts one hit without a lookup, for a caller that answers an exact
  /// repeat from its own copy of a plan it looked up here (a Session's
  /// memo of its current problem): `hits` keeps counting the rewrites
  /// answered without an engine run. One relaxed increment, no lock.
  void CountHit();

  /// Snapshot of the counters.
  PlanCacheStats stats() const;

  /// Number of cached plans.
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Plan> plans_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> capacity_rejects_{0};
};

}  // namespace aqv

#endif  // AQV_SERVICE_PLAN_CACHE_H_
