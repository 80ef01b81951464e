// Solve-cache tests: direct LRU semantics (promotion, eviction order,
// capacity-0 disable, counters) plus the property the service stakes
// its correctness on — a cached response is bit-identical to a freshly
// solved one, across random bid vectors and even under a tiny capacity
// that evicts on almost every request.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::codec::Bytes;
using dls::common::Rng;
using dls::serve::HashedKey;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::SolveCache;

Bytes key_of(const char* text) {
  Bytes out;
  for (const char* p = text; *p; ++p) {
    out.push_back(static_cast<std::uint8_t>(*p));
  }
  return out;
}

SolveCache::Value dummy_solution() {
  return std::make_shared<dls::dlt::LinearSolution>();
}

TEST(SolveCacheTest, LookupMissThenHit) {
  SolveCache cache(4);
  const Bytes key = key_of("k1");
  EXPECT_EQ(cache.lookup(key), nullptr);
  const SolveCache::Value value = dummy_solution();
  cache.insert(key, value);
  EXPECT_EQ(cache.lookup(key), value);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCacheTest, EvictsLeastRecentlyUsed) {
  SolveCache cache(2);
  cache.insert(key_of("a"), dummy_solution());
  cache.insert(key_of("b"), dummy_solution());
  // Touch "a" so "b" becomes the LRU entry, then overflow.
  EXPECT_NE(cache.lookup(key_of("a")), nullptr);
  cache.insert(key_of("c"), dummy_solution());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.lookup(key_of("a")), nullptr);  // survived
  EXPECT_EQ(cache.lookup(key_of("b")), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_of("c")), nullptr);
}

TEST(SolveCacheTest, ReinsertKeepsResidentValue) {
  SolveCache cache(2);
  const SolveCache::Value first = dummy_solution();
  cache.insert(key_of("a"), first);
  cache.insert(key_of("a"), dummy_solution());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key_of("a")), first);
}

TEST(SolveCacheTest, CapacityZeroDisables) {
  SolveCache cache(0);
  cache.insert(key_of("a"), dummy_solution());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key_of("a")), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SolveCacheTest, CollidingHashesStayDistinctEntries) {
  // Two keys forced onto one stored hash: each lookup still finds its
  // own solution, a colliding stranger misses, and evicting either key
  // leaves the other resident.
  for (const bool evict_first : {true, false}) {
    SolveCache cache(2);
    HashedKey a = key_of("a");
    HashedKey b = key_of("b");
    HashedKey stranger = key_of("s");
    a.hash = b.hash = stranger.hash = 42;
    const SolveCache::Value va = dummy_solution();
    const SolveCache::Value vb = dummy_solution();
    cache.insert(a, va);
    cache.insert(b, vb);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(stranger), nullptr);
    // Look the survivor-to-be up last so the other one is the LRU entry.
    EXPECT_EQ(cache.lookup(evict_first ? a : b), evict_first ? va : vb);
    EXPECT_EQ(cache.lookup(evict_first ? b : a), evict_first ? vb : va);
    cache.insert(key_of("c"), dummy_solution());
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.lookup(evict_first ? a : b), nullptr);
    EXPECT_EQ(cache.lookup(evict_first ? b : a), evict_first ? vb : va);
  }
}

/// Strips the per-call identity, leaving only solver-derived content.
Bytes canonical_body(ScheduleResponse response) {
  response.request_id = 0;
  return dls::serve::encode_schedule_response(response);
}

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> out(n);
  for (double& x : out) x = rng.uniform(lo, hi);
  return out;
}

/// The property the cache must uphold: for random instances, a response
/// served from cache is byte-identical to one solved fresh.
TEST(SolveCachePropertyTest, CachedEqualsFreshAcrossRandomBids) {
  ServiceConfig cached_config;
  cached_config.cache_capacity = 64;
  SchedulerService cached_service(cached_config);

  ServiceConfig fresh_config;
  fresh_config.cache_capacity = 0;  // every request solved from scratch
  SchedulerService fresh_service(fresh_config);

  SchedulerClient cached(cached_service.connect());
  SchedulerClient fresh(fresh_service.connect());

  Rng rng(20260806);
  ScheduleOptions options;
  options.want_payments = true;
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(2, 12));
    const auto w = random_vector(rng, n, 0.2, 3.0);
    const auto z = random_vector(rng, n - 1, 0.01, 0.5);

    const ScheduleResponse cold = cached.schedule(w, z, options);
    const ScheduleResponse warm = cached.schedule(w, z, options);
    const ScheduleResponse direct = fresh.schedule(w, z, options);

    ASSERT_EQ(cold.status, ScheduleStatus::kOk);
    EXPECT_FALSE(cold.cache_hit);
    ASSERT_EQ(warm.status, ScheduleStatus::kOk);
    EXPECT_TRUE(warm.cache_hit);

    // cache_hit is diagnostic metadata, not solver output; mask it
    // along with the request id before comparing bytes.
    ScheduleResponse cold_body = cold, warm_body = warm;
    cold_body.cache_hit = warm_body.cache_hit = false;
    EXPECT_EQ(canonical_body(cold_body), canonical_body(warm_body))
        << "cached response diverged from its own cold solve";
    EXPECT_EQ(canonical_body(warm_body), canonical_body(direct))
        << "cached response diverged from an uncached service";
  }
  EXPECT_GT(cached_service.cache().hits(), 0u);
  EXPECT_EQ(fresh_service.cache().size(), 0u);
}

/// Eviction pressure must never change results: with room for only two
/// solutions and six topologies in rotation, nearly every request
/// re-solves — and must still match the first answer bit-for-bit.
TEST(SolveCachePropertyTest, TinyCapacityEvictionNeverChangesResults) {
  ServiceConfig config;
  config.cache_capacity = 2;
  SchedulerService service(config);
  SchedulerClient client(service.connect());

  Rng rng(99);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> topos;
  for (int t = 0; t < 6; ++t) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
    topos.emplace_back(random_vector(rng, n, 0.2, 3.0),
                       random_vector(rng, n - 1, 0.01, 0.5));
  }

  std::map<std::size_t, Bytes> first_seen;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t t = 0; t < topos.size(); ++t) {
      ScheduleResponse response =
          client.schedule(topos[t].first, topos[t].second);
      ASSERT_EQ(response.status, ScheduleStatus::kOk);
      response.cache_hit = false;
      const Bytes body = canonical_body(response);
      const auto [it, inserted] = first_seen.emplace(t, body);
      if (!inserted) {
        EXPECT_EQ(body, it->second)
            << "topology " << t << " changed answers under eviction";
      }
    }
  }
  EXPECT_GT(service.cache().evictions(), 0u);
  EXPECT_LE(service.cache().size(), 2u);
}

}  // namespace
