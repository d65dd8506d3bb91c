// Property tests of the shared cross-connection caches: the
// catalog-independent canonical encoding (cq/global_symbols.h +
// GlobalCanonicalEncoding), a ContainmentOracle surviving the catalogs
// that fed it, and the end-to-end equivalence contract of
// frontend/server.h — servers whose plan caches have 1 shard and N shards
// must produce wire responses bit-identical to a cache-free inline
// session on replayed generator workloads, with the plan cache actually
// hitting on repeats and never serving a stale plan across view-set
// mutations. CI additionally runs this binary under ThreadSanitizer (the
// tsan-service job).

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "containment/containment.h"
#include "containment/oracle.h"
#include "cq/catalog.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "frontend/replay.h"
#include "frontend/server.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "service/plan_cache.h"
#include "testing/differential.h"
#include "testing/line_client.h"
#include "workload/generator.h"

namespace aqv {
namespace {

/// The inline-Session ground truth: the byte stream a transport-free
/// replay of `lines` produces (server session semantics: load disabled,
/// no service, no shared caches).
std::string GroundTruth(const std::vector<std::string>& lines) {
  SessionOptions options;
  options.enable_load = false;
  Session session(options);
  std::string expected;
  for (const std::string& line : lines) {
    CommandResult result = session.Execute(line);
    expected += RenderWireResponse(result);
    if (result.quit) break;
  }
  return expected;
}

// --- catalog-independent encodings -------------------------------------

TEST(SharedCacheTest, CanonicalEncodingAgreesAcrossCatalogs) {
  // Parse the same query into two catalogs whose local dense ids diverge
  // (the second catalog interns unrelated predicates first): the
  // encodings, keyed on global ids, must not.
  Catalog a;
  auto qa = ParseQuery("q(X, Z) :- e(X, Y), f(Y, Z).", &a);
  ASSERT_TRUE(qa.ok());

  Catalog b;
  auto skew = ParseQuery("skew(U) :- zzz(U), yyy(U, U).", &b);
  ASSERT_TRUE(skew.ok());
  // Variable names differ too: canonicalization must erase them.
  auto qb = ParseQuery("q(A, C) :- e(A, B), f(B, C).", &b);
  ASSERT_TRUE(qb.ok());

  EXPECT_EQ(GlobalCanonicalEncoding(*qa), GlobalCanonicalEncoding(*qb));

  // A structurally different query must not collide on the encoding.
  auto other = ParseQuery("q(X, Z) :- e(X, Y), e(Y, Z).", &b);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(GlobalCanonicalEncoding(*qb), GlobalCanonicalEncoding(*other));
}

TEST(SharedCacheTest, OracleEntriesSurviveTheirCatalogs) {
  ContainmentOracle oracle(/*max_entries=*/1024, /*num_shards=*/4);
  ContainmentOptions options;

  auto first_catalog = std::make_unique<Catalog>();
  auto sub = ParseQuery("q(X) :- e(X, Y), e(Y, X).", first_catalog.get());
  auto super = ParseQuery("p(X) :- e(X, Y).", first_catalog.get());
  ASSERT_TRUE(sub.ok() && super.ok());
  auto first = oracle.IsContainedIn(*sub, *super, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(oracle.stats().hits, 0u);
  EXPECT_EQ(oracle.stats().misses, 1u);

  // Destroy the catalog that produced the cached entry, then re-ask the
  // same (renamed) pair from a fresh catalog: the entry must hit, and the
  // verdict must match — nothing in the cache may reference the dead
  // catalog.
  Query sub_copy = *sub;
  Query super_copy = *super;
  (void)sub_copy;
  (void)super_copy;
  first_catalog.reset();

  Catalog second_catalog;
  auto sub2 = ParseQuery("q(A) :- e(A, B), e(B, A).", &second_catalog);
  auto super2 = ParseQuery("p(A) :- e(A, B).", &second_catalog);
  ASSERT_TRUE(sub2.ok() && super2.ok());
  auto second = oracle.IsContainedIn(*sub2, *super2, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(oracle.stats().hits, 1u);
  EXPECT_EQ(oracle.stats().misses, 1u);
  EXPECT_EQ(oracle.stats().confirm_failures, 0u);
}

// --- end-to-end equivalence over generated workloads -------------------

/// Renders the soak script of one pinned seed: a small generated LAV
/// scenario with churn (so `reset` + view re-adds exercise plan-cache
/// invalidation), probed across engines and routes.
std::vector<std::string> ScriptForSeed(uint64_t seed) {
  GeneratedScenarioSpec spec;
  spec.seed = seed;
  spec.num_predicates = 4;
  spec.query_atoms = 2;
  spec.num_views = 6;
  spec.max_view_atoms = 2;
  spec.facts_per_predicate = 5;
  spec.domain_size = 12;
  auto scenario = GenerateScenario(spec);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  SoakScriptOptions script_options;
  script_options.seed = seed * 7919 + 1;
  script_options.churn_cycles = static_cast<int>(seed % 3);
  auto script = SoakScriptFromScenario(*scenario, script_options);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  if (!script.ok()) return {};
  return SplitScriptLines(script->text);
}

TEST(SharedCacheTest, CacheModesAreByteIdenticalOnPinnedSeeds) {
  // The acceptance property of the shared plan cache: across 20 pinned
  // generator seeds, a server with a shared plan cache answers every
  // replayed script byte-identically to the cache-free inline-session
  // ground truth — even with clients racing the same script through the
  // shared cache.
  ServerOptions options;
  options.service.num_workers = 4;
  FrontendServer server(options);
  ASSERT_TRUE(server.Start().ok());

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<std::string> lines = ScriptForSeed(seed);
    ASSERT_FALSE(lines.empty()) << "seed " << seed;
    std::string expected = GroundTruth(lines);

    // Concurrent clients replay the script: cross-connection cache hits
    // must not perturb a single byte.
    constexpr int kClients = 2;
    std::string responses[kClients];
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { responses[c] = Roundtrip(server.port(), lines); });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(responses[c], expected) << "seed " << seed << " client " << c;
    }
  }

  // The equivalence only attests cache sharing if the plan cache was
  // actually exercised: 20 seeds x 2 clients of repeated probes must have
  // produced hits.
  EXPECT_GT(server.plan_cache().stats().hits, 0u);

  server.Stop();
}

TEST(SharedCacheTest, RepeatedScriptsHitThePlanCacheAcrossConnections) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  // Identity mirrors guarantee an equivalent rewriting exists, so the
  // engines pose real containment questions.
  const std::vector<std::string> script = {
      "view ve(X, Y) :- edge(X, Y).",
      "view vc(X) :- checked(X).",
      "view vj(X, Y) :- edge(X, Y), checked(Y).",
      "query q(X, Z) :- edge(X, Y), checked(Y), edge(Y, Z).",
      "fact edge(1, 2).",
      "fact checked(2).",
      "fact edge(2, 3).",
      "rewrite with lmss",
      "rewrite with minicon",
      "answer route complete with lmss",  // not plan-cached: engine runs every time
      "quit"};
  std::string first = Roundtrip(server.port(), script);
  PlanCacheStats after_first = server.plan_cache().stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GE(after_first.inserts, 2u);  // one plan per rewrite probe

  // A brand-new connection (fresh session, fresh catalog) repeating the
  // problem is answered from the cache, byte-identically.
  std::string second = Roundtrip(server.port(), script);
  PlanCacheStats after_second = server.plan_cache().stats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(second, GroundTruth(script));
  EXPECT_GE(after_second.hits, 2u);
  EXPECT_EQ(after_second.inserts, after_first.inserts);
  server.Stop();
}

TEST(SharedCacheTest, EngineOptionsSeparateCachedPlans) {
  // Two kinds of session share one plan cache and differ in one engine
  // option that changes lmss's payload. Neither may be answered from a
  // plan the other cached.
  const std::vector<std::string> problem = {
      "view v1(A, B) :- e(A, B).",
      "view v2(A, B) :- e(A, B).",  // a second equivalent rewriting
      "query q(X) :- e(X, Y).",
  };
  RewritePlanCache cache;
  SessionOptions first_options;
  first_options.plan_cache = &cache;
  first_options.engine.lmss.max_rewritings = 1;
  SessionOptions all_options = first_options;
  all_options.engine.lmss.max_rewritings = 2;
  auto rewrite = [&](const SessionOptions& options) {
    Session session(options);
    for (const std::string& line : problem) {
      EXPECT_TRUE(session.Execute(line).ok()) << line;
    }
    CommandResult result = session.Execute("rewrite with lmss");
    EXPECT_TRUE(result.ok()) << result.status.ToString();
    return result.output;
  };
  auto uncached = [&](SessionOptions options) {
    options.plan_cache = nullptr;
    return rewrite(options);
  };
  const std::string first = uncached(first_options);
  const std::string all = uncached(all_options);
  ASSERT_NE(first, all) << "the option must change the payload";

  EXPECT_EQ(rewrite(first_options), first);
  EXPECT_EQ(rewrite(all_options), all);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  // Each options set is then answered from its own plan.
  EXPECT_EQ(rewrite(all_options), all);
  EXPECT_EQ(rewrite(first_options), first);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SharedCacheTest, ViewMutationsInvalidateCachedPlans) {
  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());

  // One connection: rewrite, mutate the view set, rewrite again, reset
  // and rebuild a different view set, rewrite a third time. Every rewrite
  // after a mutation must reflect the *current* views — byte-compared
  // against the inline ground truth, which has no cache to go stale.
  const std::vector<std::string> script = {
      "view v(X, Y) :- edge(X, Y).",
      "query q(X, Z) :- edge(X, Y), edge(Y, Z).",
      "rewrite with lmss",
      "rewrite with lmss",  // exact repeat: served from cache
      "view w(X) :- edge(X, X).",
      "rewrite with lmss",  // view added: key changed, fresh engine run
      "reset",
      "view u(X, Y) :- edge(Y, X).",
      "query q(X, Z) :- edge(X, Y), edge(Y, Z).",
      "rewrite with lmss",  // rebuilt problem: again a fresh key
      "quit"};
  std::string expected = GroundTruth(script);
  std::string response = Roundtrip(server.port(), script);
  EXPECT_EQ(response, expected);

  PlanCacheStats stats = server.plan_cache().stats();
  EXPECT_GE(stats.hits, 1u);    // the exact repeat
  EXPECT_GE(stats.misses, 3u);  // initial + after-add + after-reset
  server.Stop();
}

}  // namespace
}  // namespace aqv
