#include "service/plan_cache.h"

#include <utility>

#include "util/hash.h"

namespace aqv {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t KeyHash(const std::string& key) {
  Fnv1a h;
  for (unsigned char c : key) h.Mix(static_cast<uint64_t>(c));
  return h.hash();
}

}  // namespace

RewritePlanCache::RewritePlanCache(size_t max_entries, size_t num_shards)
    : max_entries_(max_entries) {
  if (num_shards < 1) num_shards = 1;
  if (num_shards > 256) num_shards = 256;
  num_shards = RoundUpPow2(num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  per_shard_budget_ = (max_entries + num_shards - 1) / num_shards;
  shard_mask_ = static_cast<uint64_t>(num_shards - 1);
}

RewritePlanCache::Shard& RewritePlanCache::ShardFor(
    const std::string& key) const {
  // Top bits slice shards (the map's own hashing consumes the low bits).
  uint64_t h = KeyHash(key);
  return *shards_[(h >> 56) & shard_mask_];
}

std::string RewritePlanCache::MakeKey(const std::string& engine,
                                      const std::string& options_digest,
                                      const std::string& query_text,
                                      const std::string& views_text) {
  // Section markers make the concatenation injective: no (engine, digest,
  // query, views) quadruple collides with another by boundary shifting,
  // because the component texts never contain the '\x1f' separator.
  std::string key;
  key.reserve(engine.size() + options_digest.size() + query_text.size() +
              views_text.size() + 8);
  key += engine;
  key += '\x1f';
  key += options_digest;
  key += '\x1f';
  key += query_text;
  key += '\x1f';
  key += views_text;
  return key;
}

std::optional<RewritePlanCache::Plan> RewritePlanCache::Lookup(
    const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.plans.find(key);
  if (it == shard.plans.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void RewritePlanCache::Insert(const std::string& key, Plan plan) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.plans.count(key) != 0) return;  // first writer wins
  if (shard.plans.size() >= per_shard_budget_) {
    shard.capacity_rejects.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.plans.emplace(key, std::move(plan));
  shard.inserts.fetch_add(1, std::memory_order_relaxed);
}

void RewritePlanCache::CountHit() {
  shards_.front()->hits.fetch_add(1, std::memory_order_relaxed);
}

PlanCacheStats RewritePlanCache::stats() const {
  PlanCacheStats s;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    s.hits += shard->hits.load(std::memory_order_relaxed);
    s.misses += shard->misses.load(std::memory_order_relaxed);
    s.inserts += shard->inserts.load(std::memory_order_relaxed);
    s.capacity_rejects +=
        shard->capacity_rejects.load(std::memory_order_relaxed);
  }
  return s;
}

void RewritePlanCache::ResetStats() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->hits.store(0, std::memory_order_relaxed);
    shard->misses.store(0, std::memory_order_relaxed);
    shard->inserts.store(0, std::memory_order_relaxed);
    shard->capacity_rejects.store(0, std::memory_order_relaxed);
  }
}

size_t RewritePlanCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->plans.size();
  }
  return total;
}

void RewritePlanCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->plans.clear();
  }
}

}  // namespace aqv
