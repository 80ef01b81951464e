// One counting system for the serve tier. Every ServiceStats,
// RouterStats and SolveCache count is a per-instance
// obs::InstanceCounter mirrored into one named registry metric, so:
//
//  * with obs active, after a scripted mix of traffic (single- and
//    multi-load, shed, expired, invalid, brown-out, poison frames, and
//    replayed, inline, forwarded and refused router requests) every
//    stats() field equals its metric, summed over the instances that
//    share the name, and a field that is a sum equals the sum of its
//    metrics;
//  * with obs inactive, the same mix leaves the same stats() counts
//    and every serve.* registry counter at zero.
//
// The registry half is compiled only where the mirror is
// (obs::compiled(1)); at DLS_OBS_LEVEL=0 the stats half still runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "obs/obs.hpp"
#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"
#include "serve/transport.hpp"

namespace {

using dls::codec::Bytes;
using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::MultiLoadItem;
using dls::serve::MultiScheduleRequest;
using dls::serve::PipeEnd;
using dls::serve::RouterConfig;
using dls::serve::RouterStats;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ServiceStats;
using dls::serve::ShardRouter;
using dls::serve::TransportError;

const std::vector<double> kW = {1.0, 1.2, 0.9, 1.1};
const std::vector<double> kZ = {0.15, 0.1, 0.2};

ScheduleRequest single(std::uint64_t id, std::vector<double> w = kW,
                       std::vector<double> z = kZ) {
  ScheduleRequest request;
  request.request_id = id;
  request.w = std::move(w);
  request.z = std::move(z);
  return request;
}

void send(PipeEnd& end, const ScheduleRequest& request) {
  Frame frame{FrameType::kScheduleRequest, {}};
  frame.payload = dls::serve::encode_schedule_request(request);
  dls::serve::write_frame(end, frame);
}

void send_multi(PipeEnd& end, std::uint64_t id) {
  MultiScheduleRequest request;
  request.request_id = id;
  request.w = kW;
  request.z = kZ;
  request.loads = {MultiLoadItem{1, 1.0, 0.0, 0.0},
                   MultiLoadItem{2, 2.0, 0.5, 0.0}};
  Frame frame{FrameType::kMultiScheduleRequest, {}};
  frame.payload = dls::serve::encode_multi_schedule_request(request);
  dls::serve::write_frame(end, frame);
}

/// The status of the next response frame of either kind on `end`.
ScheduleStatus next_status(PipeEnd& end) {
  const std::optional<Frame> frame = dls::serve::read_frame(end);
  EXPECT_TRUE(frame.has_value()) << "connection closed before an answer";
  if (!frame) return ScheduleStatus::kError;
  if (frame->type == FrameType::kMultiScheduleResponse) {
    return dls::serve::decode_multi_schedule_response(frame->payload).status;
  }
  return dls::serve::decode_schedule_response(frame->payload).status;
}

/// Writes one frame whose payload no decoder accepts.
void send_garbage(PipeEnd& end, FrameType type) {
  dls::serve::write_frame(end, Frame{type, Bytes{1, 2}});
}

ScheduleStatus round_trip(PipeEnd& end, const ScheduleRequest& request) {
  send(end, request);
  return next_status(end);
}

/// A request frame with one payload bit flipped: it arrives whole but
/// fails its checksum, costing the connection one poison frame.
Bytes poison_frame() {
  Frame frame{FrameType::kScheduleRequest, {}};
  frame.payload = dls::serve::encode_schedule_request(single(99));
  Bytes wire = dls::serve::encode_frame(frame);
  wire[dls::serve::kFrameHeaderSize + 9] ^= 0x10;
  return wire;
}

/// A bare service, a shard service and a router over that one local
/// shard, driven through the scripted mix.
struct Mix {
  std::unique_ptr<SchedulerService> service;
  std::unique_ptr<SchedulerService> shard;
  std::unique_ptr<ShardRouter> router;
  std::atomic<bool> fail_next_connect{false};

  Mix() {
    ServiceConfig bare;
    bare.start_paused = true;
    bare.queue_capacity = 7;
    bare.cache_capacity = 1;  // the second resident solution evicts
    bare.poison_budget = 1;
    service = std::make_unique<SchedulerService>(bare);

    ServiceConfig brownout;
    brownout.start_paused = true;
    brownout.brownout_watermark = 1;
    shard = std::make_unique<SchedulerService>(brownout);

    RouterConfig config;
    config.shard_count = 1;
    config.local = {shard.get()};
    config.probe_dead_shards = false;
    config.connect = [this](std::size_t) {
      if (fail_next_connect.exchange(false)) {
        throw TransportError("scripted dial failure");
      }
      return std::make_unique<PipeEnd>(shard->connect());
    };
    router = std::make_unique<ShardRouter>(config);
  }

  ~Mix() {
    router->stop();
    shard->stop();
    service->stop();
  }

  void run() {
    run_service();
    run_brownout();
    run_router();
  }

  /// One dispatch window holding a batch group (two distinct topologies,
  /// a duplicate and a paid lane), a multi-load request, an expired
  /// request and an invalid instance; a shed past the queue; decode and
  /// frame-type refusals; a connection quarantined for poison.
  void run_service() {
    PipeEnd end = service->connect();
    ScheduleRequest paid = single(4);
    paid.options.want_payments = true;
    ScheduleRequest late = single(6, {1.3, 0.7, 1.0, 0.8});
    late.options.deadline_us = 1.0;
    send(end, single(1));
    send(end, single(2, {1.1, 0.9, 1.0, 1.3}));
    send(end, single(3));
    send(end, paid);
    send_multi(end, 5);
    send(end, late);
    send(end, single(7, {1.0, -1.0}, {0.1}));
    send(end, single(8));  // the queue holds 7: shed at once
    EXPECT_EQ(next_status(end), ScheduleStatus::kShed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service->resume();
    for (int i = 0; i < 5; ++i) {  // the batch group and the multi-load
      EXPECT_EQ(next_status(end), ScheduleStatus::kOk);
    }
    EXPECT_EQ(next_status(end), ScheduleStatus::kExpired);
    EXPECT_EQ(next_status(end), ScheduleStatus::kError);
    send_garbage(end, FrameType::kScheduleRequest);
    EXPECT_EQ(next_status(end), ScheduleStatus::kError);
    send_garbage(end, FrameType::kScheduleResponse);
    EXPECT_EQ(next_status(end), ScheduleStatus::kError);

    PipeEnd poisoned = service->connect();
    poisoned.write(poison_frame());  // within the budget of one
    poisoned.write(poison_frame());  // over it: quarantined
    EXPECT_FALSE(dls::serve::read_frame(poisoned).has_value());
  }

  /// The shard, paused with one request queued, is at its brown-out
  /// watermark: a cache miss and a multi-load request are degraded.
  void run_brownout() {
    PipeEnd queued = shard->connect();
    send(queued, single(1, {0.9, 1.0, 1.1, 1.2}));
    while (shard->stats().admitted == 0) std::this_thread::yield();
    PipeEnd browned = shard->connect();
    EXPECT_EQ(round_trip(browned, single(2)), ScheduleStatus::kDegraded);
    send_multi(browned, 3);
    EXPECT_EQ(next_status(browned), ScheduleStatus::kDegraded);
    shard->resume();
    EXPECT_EQ(next_status(queued), ScheduleStatus::kOk);
  }

  /// Forwarded, inline and replayed answers of one topology; a paid
  /// request; a failed dial; no owner; a decode refusal; a poison frame.
  void run_router() {
    PipeEnd end = router->connect();
    EXPECT_EQ(round_trip(end, single(1)), ScheduleStatus::kOk);  // forward
    EXPECT_EQ(round_trip(end, single(2)), ScheduleStatus::kOk);  // inline
    EXPECT_EQ(round_trip(end, single(3)), ScheduleStatus::kOk);  // replay
    ScheduleRequest paid = single(4);
    paid.options.want_payments = true;
    EXPECT_EQ(round_trip(end, paid), ScheduleStatus::kOk);

    PipeEnd redial = router->connect();
    fail_next_connect = true;
    paid.request_id = 5;
    EXPECT_EQ(round_trip(redial, paid), ScheduleStatus::kDegraded);

    router->set_alive(0, false);
    EXPECT_EQ(round_trip(end, paid), ScheduleStatus::kDegraded);
    router->set_alive(0, true);

    send_garbage(end, FrameType::kScheduleRequest);
    EXPECT_EQ(next_status(end), ScheduleStatus::kError);
    end.write(poison_frame());
    EXPECT_EQ(round_trip(end, single(6)), ScheduleStatus::kOk);  // replay
  }

  ServiceStats service_sum() const {
    const ServiceStats a = service->stats();
    const ServiceStats b = shard->stats();
    ServiceStats sum;
    for (const auto field : kServiceFields) sum.*field = a.*field + b.*field;
    return sum;
  }

  static constexpr std::uint64_t ServiceStats::*kServiceFields[] = {
      &ServiceStats::received,
      &ServiceStats::admitted,
      &ServiceStats::ok,
      &ServiceStats::shed,
      &ServiceStats::expired,
      &ServiceStats::errors,
      &ServiceStats::degraded,
      &ServiceStats::poison_frames,
      &ServiceStats::quarantined,
      &ServiceStats::batched,
      &ServiceStats::batch_groups,
      &ServiceStats::batch_deduped,
      &ServiceStats::inline_hits,
      &ServiceStats::multi_received,
      &ServiceStats::multi_loads,
  };
};

/// Every stats field the mix must have exercised.
void expect_mix_counted(const Mix& mix) {
  const ServiceStats s = mix.service_sum();
  for (const auto field : Mix::kServiceFields) EXPECT_GT(s.*field, 0u);
  const RouterStats r = mix.router->stats();
  EXPECT_EQ(r.received, 7u);
  EXPECT_EQ(r.inline_hits, 1u);
  EXPECT_EQ(r.replayed, 2u);
  EXPECT_EQ(r.forwarded, 2u);
  EXPECT_EQ(r.forward_failures, 1u);
  EXPECT_EQ(r.answered_ok, 5u);
  EXPECT_EQ(r.refused, 3u);
  EXPECT_EQ(r.no_owner, 1u);
  EXPECT_EQ(r.quorum_single, 2u);
  EXPECT_EQ(r.quorum_checked, 0u);
  EXPECT_EQ(r.rebalances, 2u);
  EXPECT_EQ(r.poison_frames, 1u);
  EXPECT_GT(mix.service->cache().hits() + mix.shard->cache().hits(), 0u);
  EXPECT_GT(mix.service->cache().evictions(), 0u);
}

std::uint64_t metric(const dls::obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ServeCountingTest, EveryStatsFieldEqualsItsMetric) {
  dls::obs::MetricsRegistry::global().reset();
  dls::obs::set_active(true);
  Mix mix;
  mix.run();
  dls::obs::set_active(false);
  expect_mix_counted(mix);

  if constexpr (dls::obs::compiled(1)) {
    const dls::obs::MetricsSnapshot snap =
        dls::obs::MetricsRegistry::global().snapshot();
    const auto m = [&](const char* name) { return metric(snap, name); };
    const ServiceStats s = mix.service_sum();
    const RouterStats r = mix.router->stats();

    EXPECT_EQ(s.received, m("serve.requests"));
    EXPECT_EQ(s.admitted, m("serve.admitted"));
    EXPECT_EQ(s.ok, m("serve.responses.ok"));
    EXPECT_EQ(s.shed, m("serve.responses.shed"));
    EXPECT_EQ(s.expired, m("serve.responses.expired"));
    EXPECT_EQ(s.errors, m("serve.responses.error"));
    EXPECT_EQ(s.degraded, m("serve.degraded"));
    EXPECT_EQ(s.batched, m("serve.batch.lanes") + m("serve.batch.dedup"));
    EXPECT_EQ(s.batch_groups, m("serve.batch.groups"));
    EXPECT_EQ(s.batch_deduped, m("serve.batch.dedup"));
    EXPECT_EQ(s.inline_hits, m("serve.inline_hits"));
    EXPECT_EQ(s.multi_received, m("serve.multi.requests"));
    EXPECT_EQ(s.multi_loads, m("serve.multi.loads"));
    // The session core's fault family is shared by both tiers.
    EXPECT_EQ(s.poison_frames + r.poison_frames,
              m("serve.fault.poison_frames"));
    EXPECT_EQ(s.quarantined + r.quarantined, m("serve.quarantined"));

    EXPECT_EQ(r.received, m("serve.shard.requests"));
    EXPECT_EQ(r.inline_hits, m("serve.shard.inline_hits"));
    EXPECT_EQ(r.replayed, m("serve.shard.replays"));
    EXPECT_EQ(r.forwarded, m("serve.shard.forwarded"));
    EXPECT_EQ(r.forward_failures, m("serve.shard.forward_failures"));
    EXPECT_EQ(r.answered_ok, m("serve.shard.answered_ok"));
    EXPECT_EQ(r.refused, m("serve.shard.refused"));
    EXPECT_EQ(r.no_owner, m("serve.shard.no_owner"));
    EXPECT_EQ(r.quorum_checked,
              m("serve.quorum.agreed") + m("serve.quorum.divergence"));
    EXPECT_EQ(r.quorum_agreed, m("serve.quorum.agreed"));
    EXPECT_EQ(r.quorum_divergence, m("serve.quorum.divergence"));
    EXPECT_EQ(r.quorum_single, m("serve.quorum.single"));
    EXPECT_EQ(r.shard_deaths, m("serve.shard.deaths"));
    EXPECT_EQ(r.shard_revivals, m("serve.shard.revivals"));
    EXPECT_EQ(r.rebalances,
              m("serve.shard.deaths") + m("serve.shard.revivals"));

    const auto& a = mix.service->cache();
    const auto& b = mix.shard->cache();
    EXPECT_EQ(a.hits() + b.hits(), m("serve.cache.hits"));
    EXPECT_EQ(a.misses() + b.misses(), m("serve.cache.misses"));
    EXPECT_EQ(a.evictions() + b.evictions(), m("serve.cache.evictions"));
  }
}

TEST(ServeCountingTest, StatsCountWhileTheRegistryStaysIdle) {
  dls::obs::MetricsRegistry::global().reset();
  dls::obs::set_active(false);
  Mix mix;
  mix.run();
  expect_mix_counted(mix);

  if constexpr (dls::obs::compiled(1)) {
    const dls::obs::MetricsSnapshot snap =
        dls::obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("serve.", 0) == 0) {
        EXPECT_EQ(value, 0u) << name;
      }
    }
  }
}

}  // namespace
