// Dispatch-window batching tests for the SchedulerService: coalesced
// cache-miss solves return responses bit-identical to unbatched ones,
// expired batchmates are refused without blocking the rest of their
// window, duplicate topologies are answered from one lane, payments
// through the batch path match the scalar assessment, the kShed /
// kDegraded / cache-hit behaviours are unchanged with batching on, and
// with it off expired and malformed requests get the same refusals.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ServiceStats;

void send_request(PipeEnd& end, const ScheduleRequest& request) {
  dls::serve::write_frame(end, Frame{FrameType::kScheduleRequest,
                                     encode_schedule_request(request)});
}

ScheduleResponse read_response(PipeEnd& end) {
  const std::optional<Frame> frame = dls::serve::read_frame(end);
  EXPECT_TRUE(frame.has_value()) << "connection closed without a response";
  EXPECT_EQ(frame->type, FrameType::kScheduleResponse);
  return dls::serve::decode_schedule_response(frame->payload);
}

ScheduleRequest make_request(std::uint64_t id, double scale,
                             std::size_t chain = 4) {
  ScheduleRequest request;
  request.request_id = id;
  for (std::size_t i = 0; i < chain; ++i) {
    request.w.push_back(scale * (1.0 + 0.1 * static_cast<double>(i)));
  }
  for (std::size_t j = 0; j + 1 < chain; ++j) {
    request.z.push_back(0.1 + 0.01 * static_cast<double>(j));
  }
  return request;
}

void expect_matches_direct_solve(const ScheduleResponse& response,
                                 const ScheduleRequest& request) {
  ASSERT_EQ(response.status, ScheduleStatus::kOk) << response.error;
  const dls::net::LinearNetwork network(request.w, request.z);
  dls::dlt::LinearSolution direct;
  dls::dlt::solve_linear_boundary_into(network, direct, /*want_steps=*/false);
  EXPECT_EQ(response.alpha, direct.alpha);  // bit-exact doubles
  EXPECT_EQ(response.makespan, direct.makespan);
}

/// Queues all `requests` on one paused service, resumes, and returns the
/// responses in admission order.
std::vector<ScheduleResponse> run_window(SchedulerService& service,
                                         PipeEnd& end,
                                         std::vector<ScheduleRequest> requests,
                                         int settle_ms = 50) {
  for (const ScheduleRequest& request : requests) send_request(end, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(settle_ms));
  service.resume();
  std::vector<ScheduleResponse> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(read_response(end));
  }
  return responses;
}

ServiceConfig paused_batching_config() {
  ServiceConfig config;
  config.start_paused = true;
  config.max_batch = 16;
  config.batch_min_lanes = 2;
  return config;
}

TEST(ServeBatchTest, BatchedResponsesBitIdenticalToDirectSolves) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    requests.push_back(make_request(id, 0.5 + 0.25 * static_cast<double>(id)));
  }
  const std::vector<ScheduleResponse> responses =
      run_window(service, end, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].request_id, requests[i].request_id);
    EXPECT_FALSE(responses[i].cache_hit);
    expect_matches_direct_solve(responses[i], requests[i]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.batched, 4u);
  EXPECT_EQ(stats.batch_groups, 1u);
  EXPECT_EQ(stats.batch_deduped, 0u);
}

TEST(ServeBatchTest, ExpiredBatchmateDoesNotBlockOthers) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  requests.push_back(make_request(1, 1.0));
  requests[0].options.deadline_us = 1000.0;  // expires while paused
  requests.push_back(make_request(2, 2.0));
  requests.push_back(make_request(3, 3.0));
  requests.push_back(make_request(4, 4.0));
  const std::vector<ScheduleResponse> responses =
      run_window(service, end, requests);
  EXPECT_EQ(responses[0].request_id, 1u);
  EXPECT_EQ(responses[0].status, ScheduleStatus::kExpired);
  for (std::size_t i = 1; i < responses.size(); ++i) {
    expect_matches_direct_solve(responses[i], requests[i]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.batched, 3u);  // the expired request never took a lane
  EXPECT_EQ(stats.batch_groups, 1u);
}

TEST(ServeBatchTest, MixedChainLengthsFormSeparateGroups) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  requests.push_back(make_request(1, 1.0, /*chain=*/4));
  requests.push_back(make_request(2, 2.0, /*chain=*/5));
  requests.push_back(make_request(3, 3.0, /*chain=*/4));
  requests.push_back(make_request(4, 4.0, /*chain=*/5));
  const std::vector<ScheduleResponse> responses =
      run_window(service, end, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_matches_direct_solve(responses[i], requests[i]);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batched, 4u);
  EXPECT_EQ(stats.batch_groups, 2u);  // one per chain length
}

TEST(ServeBatchTest, DuplicateTopologiesAnsweredFromOneLane) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  requests.push_back(make_request(1, 1.5));
  requests.push_back(make_request(2, 1.5));  // same topology as 1
  requests.push_back(make_request(3, 1.5));  // and again
  requests.push_back(make_request(4, 2.5));  // distinct
  const std::vector<ScheduleResponse> responses =
      run_window(service, end, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].request_id, requests[i].request_id);
    expect_matches_direct_solve(responses[i], requests[i]);
  }
  EXPECT_EQ(responses[0].alpha, responses[1].alpha);
  EXPECT_EQ(responses[0].alpha, responses[2].alpha);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.batched, 4u);
  EXPECT_EQ(stats.batch_groups, 1u);  // two lanes + two aliases
  EXPECT_EQ(stats.batch_deduped, 2u);
}

TEST(ServeBatchTest, PaymentsThroughBatchMatchScalarAssessment) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    requests.push_back(make_request(id, 0.8 * static_cast<double>(id)));
    requests.back().options.want_payments = true;
  }
  const std::vector<ScheduleResponse> responses =
      run_window(service, end, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_matches_direct_solve(responses[i], requests[i]);
    const dls::net::LinearNetwork network(requests[i].w, requests[i].z);
    const dls::core::DlsLblResult direct = dls::core::assess_compliant(
        network, network.processing_times(), dls::core::MechanismConfig{});
    ASSERT_EQ(responses[i].payments.size(), direct.processors.size());
    for (std::size_t j = 0; j < direct.processors.size(); ++j) {
      EXPECT_EQ(responses[i].payments[j],
                direct.processors[j].money.payment);
    }
    EXPECT_EQ(responses[i].total_payment, direct.total_payment);
  }
  EXPECT_EQ(service.stats().batched, 3u);
}

TEST(ServeBatchTest, ShedBehaviourUnchangedWithBatchingOn) {
  ServiceConfig config = paused_batching_config();
  config.queue_capacity = 2;
  SchedulerService service(config);
  PipeEnd end = service.connect();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    send_request(end, make_request(id, static_cast<double>(id)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The third request found the queue full and was shed synchronously,
  // before the dispatcher ever ran.
  const ScheduleResponse shed = read_response(end);
  EXPECT_EQ(shed.request_id, 3u);
  EXPECT_EQ(shed.status, ScheduleStatus::kShed);
  service.resume();
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeBatchTest, BrownoutBehaviourUnchangedWithBatchingOn) {
  ServiceConfig config = paused_batching_config();
  config.brownout_watermark = 1;
  SchedulerService service(config);
  PipeEnd end = service.connect();
  send_request(end, make_request(1, 1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Queue now at the watermark: the second (cache-miss) request is
  // answered kDegraded inline from the reader thread.
  send_request(end, make_request(2, 2.0));
  const ScheduleResponse degraded = read_response(end);
  EXPECT_EQ(degraded.request_id, 2u);
  EXPECT_EQ(degraded.status, ScheduleStatus::kDegraded);
  EXPECT_GT(degraded.retry_after_us, 0.0);
  service.resume();
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);
  EXPECT_EQ(service.stats().degraded, 1u);
}

TEST(ServeBatchTest, WarmCacheHitsBypassTheBatchSolver) {
  SchedulerService service(paused_batching_config());
  PipeEnd end = service.connect();
  const ScheduleRequest request = make_request(1, 1.0);
  // First window: a miss, solved (alone it is an undersized group and
  // takes the classic path).
  std::vector<ScheduleResponse> responses =
      run_window(service, end, {request});
  expect_matches_direct_solve(responses[0], request);
  EXPECT_FALSE(responses[0].cache_hit);
  // Second window: two identical requests, both answered from the cache
  // during classification — no new batch group.
  service.pause();
  ScheduleRequest again = request;
  again.request_id = 2;
  ScheduleRequest thrice = request;
  thrice.request_id = 3;
  responses = run_window(service, end, {again, thrice});
  for (const ScheduleResponse& response : responses) {
    EXPECT_EQ(response.status, ScheduleStatus::kOk);
    EXPECT_TRUE(response.cache_hit);
    EXPECT_EQ(response.alpha, responses[0].alpha);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.batch_groups, 0u);
  EXPECT_EQ(stats.batched, 0u);
}

TEST(ServeBatchTest, BatchingDisabledLeavesClassicPath) {
  std::vector<ScheduleRequest> requests;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    requests.push_back(make_request(id, 0.5 * static_cast<double>(id)));
  }
  requests.push_back(make_request(5, 3.0));
  requests.back().options.deadline_us = 1000.0;  // expires while paused
  requests.push_back(make_request(6, 1.0));
  requests.back().w[1] = -1.0;  // malformed: a negative processing time

  const auto run = [&](std::size_t batch_min_lanes, ServiceStats& stats) {
    ServiceConfig config = paused_batching_config();
    config.batch_min_lanes = batch_min_lanes;
    SchedulerService service(config);
    PipeEnd end = service.connect();
    std::vector<ScheduleResponse> responses =
        run_window(service, end, requests);
    stats = service.stats();
    return responses;
  };
  ServiceStats off_stats;
  ServiceStats on_stats;
  const std::vector<ScheduleResponse> off = run(0, off_stats);
  const std::vector<ScheduleResponse> on = run(2, on_stats);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_matches_direct_solve(off[i], requests[i]);
  }
  EXPECT_EQ(off[4].status, ScheduleStatus::kExpired);
  EXPECT_EQ(off[5].status, ScheduleStatus::kError);
  EXPECT_FALSE(off[5].error.empty());
  for (std::size_t i = 4; i < requests.size(); ++i) {
    EXPECT_EQ(off[i].request_id, requests[i].request_id);
    EXPECT_EQ(off[i].status, on[i].status);
    EXPECT_EQ(off[i].error, on[i].error);
  }
  EXPECT_EQ(off_stats.ok, 4u);
  EXPECT_EQ(off_stats.expired, 1u);
  EXPECT_EQ(off_stats.errors, 1u);
  EXPECT_EQ(off_stats.batched, 0u);
  EXPECT_EQ(off_stats.batch_groups, 0u);
  EXPECT_EQ(on_stats.batched, 4u);
}

}  // namespace

