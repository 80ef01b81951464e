// Unit coverage for the chaos-hardening layer: ChaosTransport fault
// manifestation and determinism, seeded fuzz of the frame decoder under
// corruption (nothing may escape the typed DecodeError/TransportError
// surface), the poison budget and quarantine of the session core both
// serve tiers run on, the RetryPolicy backoff schedules and the circuit
// breaker state machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "protocol/recovery.hpp"
#include "serve/chaos.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"
#include "serve/retry.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::serve::BackoffSchedule;
using dls::serve::BreakerConfig;
using dls::serve::BreakerState;
using dls::serve::ChaosConfig;
using dls::serve::ChaosTransport;
using dls::serve::CircuitBreaker;
using dls::serve::FaultKind;
using dls::serve::FaultStats;
using dls::serve::Frame;
using dls::serve::FrameTruncationError;
using dls::serve::FrameType;
using dls::serve::make_pipe;
using dls::serve::Pipe;
using dls::serve::PipeEnd;
using dls::serve::RetryPolicy;
using dls::serve::RouterConfig;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ShardRouter;
using dls::serve::TransportError;

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

Frame test_frame() {
  return Frame{FrameType::kReport, bytes_of({10, 20, 30, 40, 50})};
}

TEST(ChaosTransportTest, CleanConfigIsTransparent) {
  Pipe pipe = make_pipe();
  ChaosTransport chaotic(std::move(pipe.a), ChaosConfig{}, 1);
  dls::serve::write_frame(chaotic, test_frame());
  const auto got = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, test_frame().payload);
  EXPECT_EQ(chaotic.stats().total_injected(), 0u);
  EXPECT_EQ(chaotic.stats().writes, 1u);
}

TEST(ChaosTransportTest, DisconnectDropsFrameAndUnblocksReader) {
  Pipe pipe = make_pipe();
  ChaosTransport chaotic(std::move(pipe.a),
                         ChaosConfig::only(FaultKind::kDisconnect, 1.0), 7);
  dls::serve::write_frame(chaotic, test_frame());  // vanishes silently
  EXPECT_FALSE(dls::serve::read_frame(pipe.b).has_value());  // EOF, no hang
  EXPECT_EQ(chaotic.stats().count(FaultKind::kDisconnect), 1u);
}

TEST(ChaosTransportTest, TruncateTearsTheFrame) {
  Pipe pipe = make_pipe();
  ChaosTransport chaotic(std::move(pipe.a),
                         ChaosConfig::only(FaultKind::kTruncate, 1.0), 7);
  dls::serve::write_frame(chaotic, test_frame());
  try {
    dls::serve::read_frame(pipe.b);
    FAIL() << "torn frame accepted";
  } catch (const FrameTruncationError& e) {
    EXPECT_TRUE(e.peer_closed());
  } catch (const DecodeError&) {
    // A cut inside the header decodes as garbage — also acceptable.
  }
  EXPECT_EQ(chaotic.stats().count(FaultKind::kTruncate), 1u);
}

TEST(ChaosTransportTest, CorruptFlipsExactlyOneBit) {
  Pipe pipe = make_pipe();
  ChaosConfig config;
  config.corrupt = 1.0;  // write-side only; reads stay clean
  ChaosTransport chaotic(std::move(pipe.a), config, 7);
  const Bytes sent = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  chaotic.write(sent);
  Bytes got(sent.size());
  ASSERT_TRUE(pipe.b.read_exact(got));
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(sent[i] ^ got[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(chaotic.stats().count(FaultKind::kCorrupt), 1u);
}

TEST(ChaosTransportTest, DuplicateDeliversTheFrameTwice) {
  Pipe pipe = make_pipe();
  ChaosTransport chaotic(std::move(pipe.a),
                         ChaosConfig::only(FaultKind::kDuplicate, 1.0), 7);
  dls::serve::write_frame(chaotic, test_frame());
  const auto first = dls::serve::read_frame(pipe.b);
  const auto second = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload, second->payload);
}

TEST(ChaosTransportTest, PartialWriteAndDelayPreserveBytes) {
  for (const FaultKind kind :
       {FaultKind::kPartialWrite, FaultKind::kDelay}) {
    Pipe pipe = make_pipe();
    ChaosConfig config = ChaosConfig::only(kind, 1.0);
    config.max_delay_us = 50.0;  // keep the test fast
    config.read_delay = 0.0;     // write-side only
    ChaosTransport chaotic(std::move(pipe.a), config, 7);
    dls::serve::write_frame(chaotic, test_frame());
    const auto got = dls::serve::read_frame(pipe.b);
    ASSERT_TRUE(got.has_value()) << to_string(kind);
    EXPECT_EQ(got->payload, test_frame().payload) << to_string(kind);
    EXPECT_GE(chaotic.stats().count(kind), 1u) << to_string(kind);
  }
}

TEST(ChaosTransportTest, SameSeedReplaysBitIdentically) {
  ChaosConfig config;
  config.corrupt = 0.4;
  config.partial_write = 0.3;
  config.duplicate = 0.2;
  const auto run = [&](std::uint64_t seed) {
    Pipe pipe = make_pipe();
    ChaosTransport chaotic(std::move(pipe.a), config, seed);
    Bytes received;
    for (int i = 0; i < 32; ++i) {
      chaotic.write(bytes_of({i, i + 1, i + 2, i + 3}));
    }
    chaotic.close();
    Bytes chunk(4);
    while (pipe.b.read_exact(chunk)) {
      received.insert(received.end(), chunk.begin(), chunk.end());
    }
    return std::pair(received, chaotic.stats());
  };
  const auto [bytes_a, stats_a] = run(42);
  const auto [bytes_b, stats_b] = run(42);
  const auto [bytes_c, stats_c] = run(43);
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(stats_a.injected, stats_b.injected);
  // A different seed takes a different fault path (overwhelmingly).
  EXPECT_TRUE(bytes_a != bytes_c || stats_a.injected != stats_c.injected);
}

// Seeded fuzz: random single-frame buffers mangled by bit flips,
// truncation and trailing bytes must decode or throw DecodeError —
// nothing else may escape.
TEST(ChaosFuzzTest, BufferDecodeNeverEscapesTypedErrors) {
  dls::common::Rng rng(20260809);
  int decoded = 0;
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t payload_len =
        static_cast<std::size_t>(rng.uniform_int(0, 40));
    Frame frame;
    frame.type = static_cast<FrameType>(rng.uniform_int(1, 6));
    frame.payload.resize(payload_len);
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    Bytes wire = dls::serve::encode_frame(frame);
    // Mangle: flip up to 3 bits, maybe truncate, maybe append garbage.
    const int flips = static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      wire[at] ^= static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7));
    }
    if (rng.bernoulli(0.3) && !wire.empty()) {
      wire.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    }
    if (rng.bernoulli(0.3)) {
      const int extra = static_cast<int>(rng.uniform_int(1, 8));
      for (int e = 0; e < extra; ++e) {
        wire.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
    }
    try {
      const Frame got = dls::serve::decode_frame(wire);
      EXPECT_LE(got.payload.size(), wire.size());
      ++decoded;
    } catch (const DecodeError&) {
      ++rejected;  // FrameTruncationError included
    } catch (...) {
      FAIL() << "decode_frame leaked a non-DecodeError exception";
    }
  }
  // Both paths must actually exercise (sanity on the fuzz distribution).
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// Stream fuzz under ChaosTransport corruption: the reader must always
// terminate with a frame, EOF, or a typed error — never anything else.
TEST(ChaosFuzzTest, StreamReadNeverEscapesTypedErrors) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Pipe pipe = make_pipe();
    ChaosConfig config;
    config.corrupt = 0.35;
    config.truncate = 0.1;
    config.duplicate = 0.25;
    config.partial_write = 0.25;
    ChaosTransport chaotic(std::move(pipe.a), config, seed);
    dls::common::Rng rng(seed * 977);
    bool stream_alive = true;
    for (int i = 0; i < 16 && stream_alive; ++i) {
      Frame frame;
      frame.type = static_cast<FrameType>(rng.uniform_int(1, 6));
      frame.payload.resize(static_cast<std::size_t>(rng.uniform_int(0, 24)));
      for (auto& b : frame.payload) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      try {
        dls::serve::write_frame(chaotic, frame);
      } catch (const TransportError&) {
        stream_alive = false;  // an earlier fault killed the stream
      }
    }
    chaotic.close();
    for (;;) {
      try {
        std::size_t skipped = 0;
        const auto got =
            dls::serve::read_frame_resync(pipe.b, 4096, &skipped);
        if (!got.has_value()) break;  // clean EOF
      } catch (const DecodeError&) {
        break;  // typed rejection (truncation, garbage past scan budget)
      } catch (const TransportError&) {
        break;  // typed transport failure
      } catch (...) {
        FAIL() << "stream read leaked a non-typed exception (seed "
               << seed << ")";
      }
    }
  }
}

// ---- Poison budget and quarantine, one body for both serve tiers -----

constexpr std::size_t kPoisonBudget = 3;

/// A framed server under test, seen through what the body asserts on.
struct Tier {
  std::function<PipeEnd()> connect;
  std::function<std::uint64_t()> poison_frames;
  std::function<std::uint64_t()> quarantined;
  /// Typed kError refusals the tier has counted.
  std::function<std::uint64_t()> refused;
  /// Frame types the tier must refuse with a typed kError.
  std::vector<FrameType> unexpected;
};

ScheduleRequest probe_request() {
  ScheduleRequest request;
  request.request_id = 41;
  request.w = {1.0, 1.2, 0.9, 1.1};
  request.z = {0.15, 0.1, 0.2};
  return request;
}

Frame request_frame(const ScheduleRequest& request) {
  return Frame{FrameType::kScheduleRequest,
               dls::serve::encode_schedule_request(request)};
}

/// The request frame with one payload bit flipped: it arrives whole and
/// frame-aligned, but fails its checksum.
Bytes checksum_corrupted(const ScheduleRequest& request) {
  Bytes wire = dls::serve::encode_frame(request_frame(request));
  wire[dls::serve::kFrameHeaderSize + 9] ^= 0x10;
  return wire;
}

/// The response payload a clean solve of `request` must produce.
Bytes direct_answer(const ScheduleRequest& request) {
  const dls::net::LinearNetwork network(request.w, request.z);
  dls::dlt::LinearSolution direct;
  dls::dlt::solve_linear_boundary_into(network, direct, /*want_steps=*/false);
  ScheduleResponse response;
  response.request_id = request.request_id;
  response.status = ScheduleStatus::kOk;
  response.alpha = direct.alpha;
  response.makespan = direct.makespan;
  return dls::serve::encode_schedule_response(response);
}

[[maybe_unused]] std::uint64_t counter(const std::string& name) {
  const auto snapshot = dls::obs::MetricsRegistry::global().snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void expect_poison_budget_and_quarantine(const Tier& tier) {
  dls::obs::MetricsRegistry::global().reset();
  dls::obs::set_active(true);
  const ScheduleRequest request = probe_request();
  {
    PipeEnd end = tier.connect();
    for (std::size_t i = 0; i < kPoisonBudget; ++i) {
      end.write(checksum_corrupted(request));
    }
    // Within budget: the connection survives and answers exactly as a
    // clean solve would.
    dls::serve::write_frame(end, request_frame(request));
    const std::optional<Frame> answer = dls::serve::read_frame(end);
    ASSERT_TRUE(answer.has_value()) << "quarantined within budget";
    EXPECT_EQ(answer->type, FrameType::kScheduleResponse);
    EXPECT_EQ(answer->payload, direct_answer(request));

    // One past the budget: quarantined, the client reads EOF.
    end.write(checksum_corrupted(request));
    EXPECT_FALSE(dls::serve::read_frame(end).has_value());
  }
  EXPECT_EQ(tier.poison_frames(), kPoisonBudget + 1);
  EXPECT_EQ(tier.quarantined(), 1u);
#if DLS_OBS_LEVEL >= 1
  // The metric family is shared by both tiers and agrees with the stats.
  EXPECT_EQ(counter("serve.fault.poison_frames"), kPoisonBudget + 1);
  EXPECT_EQ(counter("serve.fault.checksum_mismatches"), kPoisonBudget + 1);
  EXPECT_EQ(counter("serve.quarantined"), 1u);
#endif
  dls::obs::set_active(false);

  PipeEnd end = tier.connect();
  for (const FrameType type : tier.unexpected) {
    const std::uint64_t before = tier.refused();
    dls::serve::write_frame(end, Frame{type, Bytes{1, 2, 3}});
    const std::optional<Frame> refusal = dls::serve::read_frame(end);
    ASSERT_TRUE(refusal.has_value()) << to_string(type);
    ASSERT_EQ(refusal->type, FrameType::kScheduleResponse);
    const ScheduleResponse response =
        dls::serve::decode_schedule_response(refusal->payload);
    EXPECT_EQ(response.status, ScheduleStatus::kError) << to_string(type);
    EXPECT_NE(response.error.find("unexpected frame type"), std::string::npos);
    EXPECT_EQ(tier.refused(), before + 1) << to_string(type);
  }
}

TEST(SessionCoreTest, ServicePoisonBudgetAndQuarantine) {
  ServiceConfig config;
  config.poison_budget = kPoisonBudget;
  SchedulerService service(config);
  expect_poison_budget_and_quarantine(Tier{
      [&] { return service.connect(); },
      [&] { return service.stats().poison_frames; },
      [&] { return service.stats().quarantined; },
      [&] { return service.stats().errors; },
      {FrameType::kBid, FrameType::kScheduleResponse}});
}

TEST(SessionCoreTest, RouterPoisonBudgetAndQuarantine) {
  SchedulerService shard(ServiceConfig{});
  RouterConfig config;
  config.shard_count = 1;
  config.connect = [&](std::size_t) {
    return std::make_unique<PipeEnd>(shard.connect());
  };
  config.local = {&shard};
  config.probe_dead_shards = false;
  config.poison_budget = kPoisonBudget;
  ShardRouter router(config);
  expect_poison_budget_and_quarantine(Tier{
      [&] { return router.connect(); },
      [&] { return router.stats().poison_frames; },
      [&] { return router.stats().quarantined; },
      [&] { return router.stats().refused; },
      {FrameType::kBid, FrameType::kMultiScheduleRequest}});
}

TEST(RetryPolicyTest, DeterministicLadderMatchesSharedBackoffCore) {
  RetryPolicy policy;
  policy.decorrelated_jitter = false;
  policy.base_delay_s = 0.001;
  policy.backoff_factor = 2.0;
  policy.max_delay_s = 0.02;
  BackoffSchedule schedule(policy, 5);
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_DOUBLE_EQ(schedule.next_delay_s(),
                     dls::protocol::exponential_backoff(0.001, 2.0, attempt,
                                                        0.02));
  }
}

TEST(RetryPolicyTest, DecorrelatedJitterStaysInBoundsAndReplays) {
  RetryPolicy policy;  // jitter on by default
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.05;
  BackoffSchedule a(policy, 11);
  BackoffSchedule b(policy, 11);
  BackoffSchedule c(policy, 12);
  double prev = 0.0;
  bool any_difference = false;
  for (int i = 0; i < 50; ++i) {
    const double delay = a.next_delay_s();
    EXPECT_GE(delay, policy.base_delay_s);
    EXPECT_LE(delay, policy.max_delay_s);
    if (prev > 0.0) {
      EXPECT_LE(delay, std::max(prev * 3.0, policy.base_delay_s));
    }
    EXPECT_DOUBLE_EQ(delay, b.next_delay_s());  // same seed, same ladder
    if (delay != c.next_delay_s()) any_difference = true;
    prev = delay;
  }
  EXPECT_TRUE(any_difference) << "different seeds produced equal ladders";
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndRejects) {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_s = 60.0;  // effectively forever for this test
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreakerTest, SuccessesKeepItClosed) {
  BreakerConfig config;
  config.failure_threshold = 2;
  CircuitBreaker breaker(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(breaker.allow());
    // Failures never accumulate to the threshold when successes
    // interleave: the count is *consecutive*.
    breaker.record_failure();
    breaker.record_success();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenClosesOrReopens) {
  BreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown_s = 0.0;  // cooldown elapses immediately
  config.half_open_probes = 1;
  CircuitBreaker breaker(config);

  breaker.record_failure();  // after one admitted call fails...
  // (state: open; cooldown 0 so the next allow() goes half-open)
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // only one probe in flight
  breaker.record_failure();       // the probe failed: straight back open
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_TRUE(breaker.allow());  // cooldown 0: probe again
  breaker.record_success();      // probe landed: closed for business
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
}

}  // namespace
