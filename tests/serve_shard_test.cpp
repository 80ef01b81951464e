// ShardMap + ShardRouter unit coverage: consistent-hash stability (a
// death moves only the dead shard's arc), replication owner walks,
// routed solves with warm inline hits, replays of inline answers under
// any request id, quorum divergence surfacing as a typed incident, the
// byte-wise quorum compare with its id-patched forward and relay,
// backpressure merging, and heartbeat-budget death detection with
// monitor-probe revival.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/key_hash.hpp"
#include "serve/pipe.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"
#include "serve/shard.hpp"

namespace {

using dls::codec::Bytes;
using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::RouterConfig;
using dls::serve::RouterStats;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ShardMap;
using dls::serve::ShardRouter;
using dls::serve::Transport;
using dls::serve::TransportError;

Bytes key_of(std::uint64_t i) {
  Bytes key(8);
  for (int b = 0; b < 8; ++b) {
    key[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(i >> (8 * b));
  }
  return key;
}

TEST(ShardMapTest, HashIsTheDocumentedFnv1a64) {
  EXPECT_EQ(dls::serve::shard_hash({}), 14695981039346656037ull);
  const Bytes a = {0x61};  // "a"
  EXPECT_EQ(dls::serve::shard_hash(a), 0xaf63dc4c8601ec8cull);
}

/// `n` bytes of a fixed, non-repeating pattern.
Bytes pattern_of(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return out;
}

TEST(ShardMapTest, KeyHashIsTheDocumentedWordwiseFnv1a64) {
  // fmix64 of FNV-1a-64 over little-endian 8-byte words plus a bytewise
  // tail: the empty, one-byte, one-word, word-plus-tail and 512-word
  // cases. These values fix ring placement and the cache index.
  using dls::serve::topology_key_hash;
  EXPECT_EQ(topology_key_hash(pattern_of(0)), 0xefd01f60ba992926ull);
  EXPECT_EQ(topology_key_hash(pattern_of(1)), 0xd8c9bb075c493102ull);
  EXPECT_EQ(topology_key_hash(pattern_of(8)), 0xddd0515a86a170a1ull);
  EXPECT_EQ(topology_key_hash(pattern_of(9)), 0x4432aa671cd06e7full);
  EXPECT_EQ(topology_key_hash(pattern_of(4096)), 0x186187f796fb9b2aull);
  // The hash a HashedKey carries and a KeyRef computes is this one.
  const Bytes key = pattern_of(9);
  EXPECT_EQ(dls::serve::HashedKey(key).hash, 0x4432aa671cd06e7full);
  EXPECT_EQ(dls::serve::KeyRef(key).hash, 0x4432aa671cd06e7full);
}

/// Primary-shard shares of `keys` on `map`.
std::vector<double> primary_shares(const ShardMap& map,
                                   const std::vector<Bytes>& keys) {
  std::vector<double> shares(map.shard_count(), 0.0);
  for (const Bytes& key : keys) shares[map.primary(key)] += 1.0;
  for (double& share : shares) share /= static_cast<double>(keys.size());
  return shares;
}

TEST(ShardMapTest, ChainsDifferingOnlyInTheirLastZPlaceLikeRandomKeys) {
  // Keys that share everything but their last bytes must spread over the
  // ring like unrelated keys: the finaliser mixes the tail into every
  // bit the ring compares.
  constexpr std::size_t kKeys = 4000;
  constexpr std::size_t kChain = 16;
  const ShardMap map(3);
  dls::common::Rng rng(17);
  std::vector<double> w(kChain, 1.0);
  std::vector<double> z(kChain - 1, 0.1);
  std::vector<Bytes> chains;  // the last z steps one ulp at a time
  std::vector<Bytes> words;   // only the last 8-byte word's low bits differ
  std::vector<Bytes> random;
  for (std::size_t i = 0; i < kKeys; ++i) {
    z.back() = std::bit_cast<double>(std::bit_cast<std::uint64_t>(0.1) + i);
    chains.push_back(dls::serve::canonical_topology_key(w, z));
    Bytes word_key(32, 0x5a);
    for (std::size_t b = 0; b < 8; ++b) {
      word_key[24 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    words.push_back(std::move(word_key));
    std::vector<double> rw(kChain);
    std::vector<double> rz(kChain - 1);
    for (double& x : rw) x = rng.uniform(0.5, 2.0);
    for (double& x : rz) x = rng.uniform(0.05, 0.5);
    random.push_back(dls::serve::canonical_topology_key(rw, rz));
  }
  const std::vector<double> want = primary_shares(map, random);
  for (const std::vector<Bytes>* structured : {&chains, &words}) {
    const std::vector<double> got = primary_shares(map, *structured);
    for (std::size_t shard = 0; shard < got.size(); ++shard) {
      EXPECT_NEAR(got[shard], want[shard], 0.05)
          << (structured == &chains ? "chains" : "words") << ", shard "
          << shard;
    }
  }
}

TEST(ShardMapTest, OwnersAreDistinctAliveAndDeterministic) {
  ShardMap map(5);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Bytes key = key_of(i);
    const auto owners = map.owners(key, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_NE(owners[1], owners[2]);
    EXPECT_NE(owners[0], owners[2]);
    EXPECT_EQ(owners, map.owners(key, 3));  // deterministic
    EXPECT_EQ(owners[0], map.primary(key));
  }
  // Replication clamps to the alive population.
  EXPECT_EQ(map.owners(key_of(1), 99).size(), 5u);
}

TEST(ShardMapTest, DeathMovesOnlyTheDeadShardsArc) {
  ShardMap map(4);
  constexpr std::uint64_t kKeys = 2000;
  std::vector<std::size_t> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    before[i] = map.primary(key_of(i));
  }
  EXPECT_TRUE(map.set_alive(2, false));
  EXPECT_FALSE(map.set_alive(2, false));  // no edge: already dead
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::size_t now = map.primary(key_of(i));
    EXPECT_NE(now, 2u);
    if (before[i] == 2) {
      ++moved;
    } else {
      // The consistent-hash guarantee: keys not owned by the dead
      // shard keep their primary exactly.
      EXPECT_EQ(now, before[i]) << "key " << i;
    }
  }
  EXPECT_GT(moved, 0u);
  // Revival restores the original assignment bit for bit.
  EXPECT_TRUE(map.set_alive(2, true));
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.primary(key_of(i)), before[i]);
  }
}

TEST(ShardMapTest, AllDeadMeansNoOwners) {
  ShardMap map(2);
  map.set_alive(0, false);
  map.set_alive(1, false);
  EXPECT_TRUE(map.owners(key_of(7), 2).empty());
  EXPECT_EQ(map.primary(key_of(7)), map.shard_count());
}

/// An in-process federation: N real shard services behind one router.
struct Federation {
  std::vector<std::unique_ptr<SchedulerService>> shards;
  std::unique_ptr<ShardRouter> router;

  explicit Federation(std::size_t n, RouterConfig config = RouterConfig{},
                      ServiceConfig shard_config = ServiceConfig{}) {
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<SchedulerService>(shard_config));
    }
    config.shard_count = n;
    auto* backing = &shards;
    config.connect = [backing](std::size_t shard) {
      return std::make_unique<PipeEnd>((*backing)[shard]->connect());
    };
    if (config.local.empty()) {
      for (auto& shard : shards) config.local.push_back(shard.get());
    }
    router = std::make_unique<ShardRouter>(config);
  }
  ~Federation() {
    router->stop();
    for (auto& shard : shards) shard->stop();
  }
};

TEST(ShardRouterTest, RoutesSolvesAndServesWarmHitsInline) {
  Federation fed(3);
  SchedulerClient client(fed.router->connect());
  const std::vector<double> w = {1.0, 1.2, 0.9, 1.1};
  const std::vector<double> z = {0.15, 0.1, 0.2};

  const auto cold = client.schedule(w, z);
  ASSERT_EQ(cold.status, ScheduleStatus::kOk);
  const auto warm = client.schedule(w, z);
  ASSERT_EQ(warm.status, ScheduleStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.alpha, warm.alpha);
  EXPECT_EQ(cold.makespan, warm.makespan);

  ScheduleOptions pay;
  pay.want_payments = true;
  const auto paid = client.schedule(w, z, pay);
  ASSERT_EQ(paid.status, ScheduleStatus::kOk);
  EXPECT_FALSE(paid.payments.empty());

  const RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.answered_ok, 3u);
  EXPECT_EQ(stats.inline_hits, 1u);  // the warm payment-free hit
  // Exactly one shard saw the key; the others stayed cold.
  std::uint64_t shard_received = 0;
  for (const auto& shard : fed.shards) {
    shard_received += shard->stats().received;
  }
  EXPECT_EQ(shard_received, 2u);  // cold solve + payments; warm was inline
  client.close();
}

TEST(ShardRouterTest, ReplicationCrossChecksAndAgrees) {
  RouterConfig config;
  config.replication = 2;
  Federation fed(3, config);
  SchedulerClient client(fed.router->connect());
  const std::vector<double> w = {1.0, 0.8, 1.3};
  const std::vector<double> z = {0.2, 0.1};
  const auto answer = client.schedule(w, z);
  ASSERT_EQ(answer.status, ScheduleStatus::kOk);
  const RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.quorum_checked, 1u);
  EXPECT_EQ(stats.quorum_agreed, 1u);
  EXPECT_EQ(stats.quorum_divergence, 0u);
  EXPECT_EQ(stats.forwarded, 2u);
  client.close();
}

/// Re-encodes a payload's leading magic-string length as an overlong
/// two-byte varint: the codec still decodes it, but every later field
/// sits one byte further on than in the canonical encoding.
Bytes with_overlong_magic(Bytes payload) {
  payload[0] |= 0x80;
  payload.insert(payload.begin() + 1, 0x00);
  return payload;
}

/// A scripted shard: answers every schedule request with a fixed kOk
/// solution (or any response the mutator builds), over a Pipe, and
/// records the raw payloads it read and wrote. With `overlong_magic`
/// its replies use with_overlong_magic.
class FakeShard {
 public:
  using Responder = std::function<ScheduleResponse(const ScheduleRequest&)>;

  explicit FakeShard(Responder responder, bool overlong_magic = false)
      : responder_(std::move(responder)), overlong_magic_(overlong_magic) {}
  ~FakeShard() {
    for (auto& end : ends_) end->close();
    for (auto& thread : threads_) thread.join();
  }

  /// Request payloads read, in arrival order.
  std::vector<Bytes> requests() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requests_;
  }
  /// Response payloads written, in order.
  std::vector<Bytes> replies() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_;
  }

  std::unique_ptr<Transport> connect() {
    dls::serve::Pipe pipe = dls::serve::make_pipe();
    auto server = std::make_unique<PipeEnd>(std::move(pipe.a));
    PipeEnd* raw = server.get();
    ends_.push_back(std::move(server));
    threads_.emplace_back([this, raw] { serve(raw); });
    return std::make_unique<PipeEnd>(std::move(pipe.b));
  }

 private:
  void serve(PipeEnd* end) {
    try {
      for (;;) {
        const auto frame = dls::serve::read_frame(*end);
        if (!frame) return;
        const ScheduleRequest request =
            dls::serve::decode_schedule_request(frame->payload);
        ScheduleResponse response = responder_(request);
        response.request_id = request.request_id;
        Frame reply;
        reply.type = FrameType::kScheduleResponse;
        reply.payload = dls::serve::encode_schedule_response(response);
        if (overlong_magic_) {
          reply.payload = with_overlong_magic(std::move(reply.payload));
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          requests_.push_back(frame->payload);
          replies_.push_back(reply.payload);
        }
        dls::serve::write_frame(*end, reply);
      }
    } catch (const dls::Error&) {
      // Torn down mid-read at destruction; nothing to do.
    }
  }

  Responder responder_;
  bool overlong_magic_;
  std::vector<std::unique_ptr<PipeEnd>> ends_;
  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::vector<Bytes> requests_;
  std::vector<Bytes> replies_;
};

/// A router over scripted shards at R = shard count.
RouterConfig fake_config(std::vector<std::unique_ptr<FakeShard>>* fakes) {
  RouterConfig config;
  config.shard_count = fakes->size();
  config.replication = fakes->size();
  config.probe_dead_shards = false;
  config.connect = [fakes](std::size_t shard) {
    return (*fakes)[shard]->connect();
  };
  return config;
}

/// Writes `payload` as one request frame and returns the raw reply
/// payload.
Bytes round_trip(PipeEnd& end, Bytes payload) {
  dls::serve::write_frame(
      end, Frame{FrameType::kScheduleRequest, std::move(payload)});
  const auto reply = dls::serve::read_frame(end);
  EXPECT_TRUE(reply.has_value());
  return reply ? reply->payload : Bytes{};
}

Bytes round_trip(PipeEnd& end, const ScheduleRequest& request) {
  return round_trip(end, dls::serve::encode_schedule_request(request));
}

ScheduleResponse ok_response(double makespan) {
  ScheduleResponse response;
  response.status = ScheduleStatus::kOk;
  response.alpha = {0.6, 0.4};
  response.makespan = makespan;
  return response;
}

TEST(ShardRouterTest, ReplicatedRepeatsAreAllForwarded) {
  // The replay tier is filled only by the R=1 colocated inline path, so
  // at R=2 it is never consulted: every repeat of one payload goes to
  // both owners, whose caches answer it.
  RouterConfig config;
  config.replication = 2;
  Federation fed(3, config);
  PipeEnd end = fed.router->connect();
  ScheduleRequest request;
  request.w = {1.0, 0.8, 1.3};
  request.z = {0.2, 0.1};
  constexpr std::uint64_t kRequests = 5;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    request.request_id = id;
    const ScheduleResponse answer =
        dls::serve::decode_schedule_response(round_trip(end, request));
    ASSERT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
    EXPECT_EQ(answer.cache_hit, id > 1);
  }
  const RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.received, kRequests);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(stats.inline_hits, 0u);
  EXPECT_EQ(stats.forwarded, 2 * kRequests);
  EXPECT_EQ(stats.quorum_agreed, kRequests);
}

TEST(ShardRouterTest, ReplayAnswersRepeatsUnderAnyId) {
  // After an inline hit, the replay byte-cache answers every repeat of
  // that request, under a fresh id or its own (an idempotent retry),
  // with the inline answer's frame bytes and only the echoed id
  // patched. Answers that are not a pure function of the request bytes
  // (payments, deadlines) are never replayed.
  Federation fed(3);
  PipeEnd end = fed.router->connect();
  ScheduleRequest request;
  request.w = {1.0, 1.2, 0.9, 1.1};
  request.z = {0.15, 0.1, 0.2};

  request.request_id = 1;
  const ScheduleResponse cold =
      dls::serve::decode_schedule_response(round_trip(end, request));
  ASSERT_EQ(cold.status, ScheduleStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  request.request_id = 2;
  const Bytes inline_answer = round_trip(end, request);
  RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.inline_hits, 1u);
  EXPECT_EQ(stats.replayed, 0u);

  const auto expect_replayed_frame = [&](std::uint64_t id) {
    request.request_id = id;
    dls::serve::write_frame(
        end, Frame{FrameType::kScheduleRequest,
                   dls::serve::encode_schedule_request(request)});
    Bytes patched = inline_answer;
    dls::serve::patch_schedule_response_id(patched, id);
    const Bytes expected = dls::serve::encode_frame(
        Frame{FrameType::kScheduleResponse, std::move(patched)});
    Bytes got(expected.size());
    ASSERT_TRUE(end.read_partial(got, /*timeout_s=*/5.0).complete);
    EXPECT_EQ(got, expected) << "request id " << id;
  };
  expect_replayed_frame(3);  // a fresh id
  expect_replayed_frame(3);  // the exact same frame again
  stats = fed.router->stats();
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.inline_hits, 1u);

  ScheduleRequest paid = request;
  paid.options.want_payments = true;
  ScheduleRequest timed = request;
  timed.options.deadline_us = 1e6;
  std::uint64_t id = 4;
  for (ScheduleRequest* changed : {&paid, &timed, &paid, &timed}) {
    changed->request_id = id++;
    const ScheduleResponse answer =
        dls::serve::decode_schedule_response(round_trip(end, *changed));
    EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
    EXPECT_EQ(answer.request_id, changed->request_id);
    EXPECT_EQ(answer.alpha, cold.alpha);
    EXPECT_EQ(answer.payments.empty(), changed == &timed);
  }
  stats = fed.router->stats();
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.inline_hits, 1u);
  EXPECT_EQ(stats.received, 8u);
  EXPECT_EQ(stats.answered_ok, 8u);
  end.close();
}

TEST(ShardRouterTest, ReplayCacheEvictsInInsertionOrderAtCapacity) {
  // The replay tier holds replay_cache_capacity answers and evicts the
  // oldest insertion first; a replay hit does not refresh an entry.
  RouterConfig config;
  config.replay_cache_capacity = 2;
  Federation fed(3, config);
  PipeEnd end = fed.router->connect();
  std::uint64_t next_id = 1;
  const auto send = [&](double last_z) {
    ScheduleRequest request;
    request.request_id = next_id++;
    request.w = {1.0, 1.2, 0.9};
    request.z = {0.15, last_z};
    const ScheduleResponse answer =
        dls::serve::decode_schedule_response(round_trip(end, request));
    EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
  };
  const auto counts = [&] {
    const RouterStats stats = fed.router->stats();
    return std::pair{stats.inline_hits, stats.replayed};
  };
  // Solve A, B, C, then answer each inline once: A, B, C are stored in
  // that order and A falls out.
  for (const double z : {0.1, 0.2, 0.3}) send(z);
  for (const double z : {0.1, 0.2, 0.3}) send(z);
  EXPECT_EQ(counts(), std::pair(std::uint64_t{3}, std::uint64_t{0}));
  send(0.3);  // C replays
  send(0.2);  // B replays
  EXPECT_EQ(counts(), std::pair(std::uint64_t{3}, std::uint64_t{2}));
  send(0.1);  // A is gone: inline again, stored, and B (oldest) leaves
  EXPECT_EQ(counts(), std::pair(std::uint64_t{4}, std::uint64_t{2}));
  send(0.3);  // C stays
  send(0.1);  // A replays
  EXPECT_EQ(counts(), std::pair(std::uint64_t{4}, std::uint64_t{4}));
  send(0.2);  // B was evicted, though it replayed after C
  EXPECT_EQ(counts(), std::pair(std::uint64_t{5}, std::uint64_t{4}));
  end.close();
}

TEST(ShardRouterTest, QuorumDivergenceIsATypedIncidentNeverAnAnswer) {
  // Two scripted shards disagree on the makespan: the router must
  // refuse with a typed kError, count the divergence, and never pick
  // one of the conflicting answers.
  std::vector<std::unique_ptr<FakeShard>> fakes;
  fakes.push_back(std::make_unique<FakeShard>(
      [](const ScheduleRequest&) { return ok_response(1.0); }));
  fakes.push_back(std::make_unique<FakeShard>(
      [](const ScheduleRequest&) { return ok_response(1.0 + 1e-9); }));

  RouterConfig config;
  config.shard_count = 2;
  config.replication = 2;
  config.probe_dead_shards = false;
  auto* backing = &fakes;
  config.connect = [backing](std::size_t shard) {
    return (*backing)[shard]->connect();
  };
  ShardRouter router(config);
  SchedulerClient client(router.connect());

  const std::vector<double> w = {1.0, 1.0};
  const std::vector<double> z = {0.1};
  const auto answer = client.schedule(w, z);
  EXPECT_EQ(answer.status, ScheduleStatus::kError);
  EXPECT_NE(answer.error.find("divergence"), std::string::npos);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.quorum_divergence, 1u);
  EXPECT_EQ(stats.answered_ok, 0u);
  client.close();
  router.stop();
}

TEST(ShardRouterTest, QuorumIgnoresIdAndCacheHitRelaysReplicaBytes) {
  // Replicas that differ only in the per-hop fields agree. The client
  // gets the first owner's reply payload byte for byte under its own id,
  // and every forwarded request is the client's payload with only the
  // per-link id patched in.
  std::vector<std::unique_ptr<FakeShard>> fakes;
  for (const bool hit : {true, false}) {
    fakes.push_back(std::make_unique<FakeShard>([hit](const ScheduleRequest&) {
      ScheduleResponse response = ok_response(1.0);
      response.cache_hit = hit;
      response.payments = {0.6, 0.5};
      response.total_payment = 0.5;
      return response;
    }));
  }
  ShardRouter router(fake_config(&fakes));
  PipeEnd end = router.connect();
  ScheduleRequest request;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  request.options.want_payments = true;

  // Burn one link id on shard 0 alone so the replicas' answers also
  // carry different request ids (2 on shard 0, 1 on shard 1).
  router.set_alive(1, false);
  request.request_id = 40;
  round_trip(end, request);
  router.set_alive(1, true);

  request.request_id = 41;
  const Bytes answer = round_trip(end, request);
  const ScheduleResponse decoded =
      dls::serve::decode_schedule_response(answer);
  EXPECT_EQ(decoded.status, ScheduleStatus::kOk);
  EXPECT_EQ(decoded.request_id, 41u);
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.quorum_checked, 1u);
  EXPECT_EQ(stats.quorum_agreed, 1u);
  EXPECT_EQ(stats.quorum_divergence, 0u);

  const Bytes client_payload = dls::serve::encode_schedule_request(request);
  const std::vector<std::size_t> owners =
      ShardMap(2, dls::serve::ShardMapConfig{RouterConfig{}.vnodes})
          .owners(dls::serve::canonical_topology_key(request.w, request.z),
                  2);
  ASSERT_EQ(owners.size(), 2u);
  Bytes relayed = fakes[owners[0]]->replies().back();
  dls::serve::patch_schedule_response_id(relayed, 41);
  EXPECT_EQ(answer, relayed);
  EXPECT_EQ(decoded.cache_hit, owners[0] == 0);

  for (std::size_t shard = 0; shard < fakes.size(); ++shard) {
    const std::vector<Bytes> seen = fakes[shard]->requests();
    ASSERT_FALSE(seen.empty());
    const Bytes& forwarded = seen.back();
    EXPECT_EQ(dls::serve::schedule_request_id(forwarded),
              shard == 0 ? 2u : 1u);
    Bytes as_client = forwarded;
    dls::serve::patch_schedule_request_id(as_client, 41);
    EXPECT_EQ(as_client, client_payload) << "shard " << shard;
  }
  end.close();
  router.stop();
}

TEST(ShardRouterTest, OneUlpPaymentDivergenceIsATypedIncident) {
  // The quorum compares every answer byte, payments included: one ulp
  // on one payment is a divergence, never an answer.
  std::vector<std::unique_ptr<FakeShard>> fakes;
  for (const double q1 : {0.25, std::nextafter(0.25, 1.0)}) {
    fakes.push_back(std::make_unique<FakeShard>([q1](const ScheduleRequest&) {
      ScheduleResponse response = ok_response(1.0);
      response.payments = {0.6, q1};
      response.total_payment = 0.25;
      return response;
    }));
  }
  ShardRouter router(fake_config(&fakes));
  PipeEnd end = router.connect();
  ScheduleRequest request;
  request.request_id = 9;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  request.options.want_payments = true;
  const ScheduleResponse answer =
      dls::serve::decode_schedule_response(round_trip(end, request));
  EXPECT_EQ(answer.status, ScheduleStatus::kError);
  EXPECT_EQ(answer.request_id, 9u);
  EXPECT_NE(answer.error.find("divergence"), std::string::npos);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.quorum_divergence, 1u);
  EXPECT_EQ(stats.quorum_agreed, 0u);
  EXPECT_EQ(stats.answered_ok, 0u);
  end.close();
  router.stop();
}

TEST(ShardRouterTest, OverlongRequestMagicIsForwardedCanonically) {
  // A request whose magic length is an overlong varint still decodes,
  // but its id is not at the canonical offset. The router must not
  // patch the link id over the wrong bytes: it forwards a canonical
  // re-encoding, the client gets its answer, and no shard is charged.
  std::vector<std::unique_ptr<FakeShard>> fakes;
  for (int i = 0; i < 2; ++i) {
    fakes.push_back(std::make_unique<FakeShard>(
        [](const ScheduleRequest&) { return ok_response(1.0); }));
  }
  ShardRouter router(fake_config(&fakes));
  PipeEnd end = router.connect();
  ScheduleRequest request;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  for (std::uint64_t id = 41; id < 41 + 4; ++id) {
    request.request_id = id;
    const Bytes sent =
        with_overlong_magic(dls::serve::encode_schedule_request(request));
    ASSERT_FALSE(dls::serve::has_canonical_request_id(sent));
    ASSERT_EQ(dls::serve::decode_schedule_request(sent).request_id, id);
    const ScheduleResponse answer =
        dls::serve::decode_schedule_response(round_trip(end, sent));
    EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
    EXPECT_EQ(answer.request_id, id);
    EXPECT_EQ(answer.makespan, 1.0);
  }
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.forward_failures, 0u);
  EXPECT_EQ(stats.shard_deaths, 0u);
  EXPECT_EQ(stats.quorum_agreed, 4u);
  for (const auto& fake : fakes) {
    const std::vector<Bytes> seen = fake->requests();
    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ScheduleRequest expected = request;
      expected.request_id = i + 1;  // the link's own ids
      EXPECT_EQ(seen[i], dls::serve::encode_schedule_request(expected));
    }
  }
  end.close();
  router.stop();
}

TEST(ShardRouterTest, OverlongReplyMagicIsReencodedOrDivergent) {
  ScheduleRequest request;
  request.request_id = 41;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  const auto responder = [](const ScheduleRequest&) {
    return ok_response(1.0);
  };
  {
    // A lone replica's non-canonical reply is relayed re-encoded, under
    // the client's id.
    std::vector<std::unique_ptr<FakeShard>> fakes;
    fakes.push_back(std::make_unique<FakeShard>(responder, true));
    ShardRouter router(fake_config(&fakes));
    PipeEnd end = router.connect();
    const Bytes answer = round_trip(end, request);
    ScheduleResponse expected = ok_response(1.0);
    expected.request_id = 41;
    EXPECT_EQ(answer, dls::serve::encode_schedule_response(expected));
    EXPECT_EQ(router.stats().forward_failures, 0u);
    end.close();
    router.stop();
  }
  {
    // Against a canonical replica it is not byte-identical: a typed
    // divergence incident, never an answer.
    std::vector<std::unique_ptr<FakeShard>> fakes;
    fakes.push_back(std::make_unique<FakeShard>(responder, false));
    fakes.push_back(std::make_unique<FakeShard>(responder, true));
    ShardRouter router(fake_config(&fakes));
    PipeEnd end = router.connect();
    const ScheduleResponse answer =
        dls::serve::decode_schedule_response(round_trip(end, request));
    EXPECT_EQ(answer.status, ScheduleStatus::kError);
    EXPECT_EQ(answer.request_id, 41u);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.quorum_divergence, 1u);
    EXPECT_EQ(stats.forward_failures, 0u);
    end.close();
    router.stop();
  }
}

TEST(ShardRouterTest, BackpressureMergeTakesTheLargestRetryAfter) {
  std::vector<std::unique_ptr<FakeShard>> fakes;
  for (const double hint : {500.0, 9000.0}) {
    fakes.push_back(
        std::make_unique<FakeShard>([hint](const ScheduleRequest&) {
          ScheduleResponse response;
          response.status = ScheduleStatus::kDegraded;
          response.retry_after_us = hint;
          return response;
        }));
  }
  RouterConfig config;
  config.shard_count = 2;
  config.replication = 2;
  config.probe_dead_shards = false;
  auto* backing = &fakes;
  config.connect = [backing](std::size_t shard) {
    return (*backing)[shard]->connect();
  };
  ShardRouter router(config);

  // Drive the frame exchange by hand: schedule() would retry nothing,
  // but we want the raw merged refusal.
  PipeEnd end = router.connect();
  ScheduleRequest request;
  request.request_id = 77;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  Frame frame;
  frame.type = FrameType::kScheduleRequest;
  frame.payload = dls::serve::encode_schedule_request(request);
  dls::serve::write_frame(end, frame);
  const auto reply = dls::serve::read_frame(end);
  ASSERT_TRUE(reply.has_value());
  const ScheduleResponse merged =
      dls::serve::decode_schedule_response(reply->payload);
  EXPECT_EQ(merged.status, ScheduleStatus::kDegraded);
  EXPECT_EQ(merged.retry_after_us, 9000.0);
  EXPECT_EQ(merged.request_id, 77u);
  end.close();
  router.stop();
}

TEST(ShardRouterTest, HeartbeatBudgetDeathThenMonitorRevival) {
  auto service = std::make_unique<SchedulerService>(ServiceConfig{});
  std::atomic<bool> reachable{true};

  RouterConfig config;
  config.shard_count = 1;
  config.heartbeat.retry_budget = 2;
  config.heartbeat.period = 0.005;  // fast probes for the test
  config.heartbeat.max_backoff = 0.02;
  config.forward_timeout_s = 0.5;
  config.connect = [&](std::size_t) -> std::unique_ptr<Transport> {
    if (!reachable.load()) throw TransportError("shard unreachable");
    return std::make_unique<PipeEnd>(service->connect());
  };
  ShardRouter router(config);
  SchedulerClient client(router.connect());

  const std::vector<double> w = {1.0, 1.1};
  const std::vector<double> z = {0.1};
  ASSERT_EQ(client.schedule(w, z).status, ScheduleStatus::kOk);

  // Cut the shard off. The live backend link dies with the service;
  // the next requests burn the retry budget and confirm death.
  reachable.store(false);
  service->stop();
  ScheduleResponse refusal;
  for (int i = 0; i < 4; ++i) {
    refusal = client.schedule(w, z);
    if (router.stats().shard_deaths > 0) break;
  }
  EXPECT_NE(refusal.status, ScheduleStatus::kOk);
  RouterStats stats = router.stats();
  EXPECT_GE(stats.shard_deaths, 1u);
  EXPECT_GE(stats.rebalances, 1u);
  EXPECT_FALSE(router.alive()[0]);

  // Bring the shard back; the monitor's backoff probes must revive it.
  service = std::make_unique<SchedulerService>(ServiceConfig{});
  reachable.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router.alive()[0] &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(router.alive()[0]);
  stats = router.stats();
  EXPECT_GE(stats.shard_revivals, 1u);
  EXPECT_GE(stats.rebalances, 2u);
  EXPECT_EQ(client.schedule(w, z).status, ScheduleStatus::kOk);

  client.close();
  router.stop();
  service->stop();
}

}  // namespace
