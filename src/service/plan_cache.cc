#include "service/plan_cache.h"

#include <utility>

namespace aqv {

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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void RewritePlanCache::Insert(const std::string& key, Plan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.count(key) != 0) return;  // first writer wins
  if (plans_.size() >= kMaxEntries) {
    capacity_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  plans_.emplace(key, std::move(plan));
  inserts_.fetch_add(1, std::memory_order_relaxed);
}

void RewritePlanCache::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
}

PlanCacheStats RewritePlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.capacity_rejects = capacity_rejects_.load(std::memory_order_relaxed);
  return s;
}

size_t RewritePlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace aqv
