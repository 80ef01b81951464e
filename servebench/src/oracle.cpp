#include "oracle.hpp"

#include <cstring>

#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "stats.hpp"

namespace sb {

namespace ds = dls::serve;

namespace {

/// Byte offset of the request id inside each payload kind, found by
/// probing the codec (both kinds then carry the status byte right after
/// the id in responses, and single-load responses the cache-hit flag).
struct WireLayout {
  std::size_t request_id = 0;
  std::size_t multi_request_id = 0;
  std::size_t response_id = 0;
  std::size_t multi_response_id = 0;
};

/// First byte at which two encodings differ: the id field, when the
/// encodings differ only in their id.
std::size_t first_difference(const dls::codec::Bytes& a,
                             const dls::codec::Bytes& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

WireLayout probe_layout() {
  WireLayout layout;
  ds::ScheduleRequest request;
  request.w = {1.0, 1.0};
  request.z = {1.0};
  request.request_id = 0;
  const auto r0 = ds::encode_schedule_request(request);
  request.request_id = 0xFF;
  layout.request_id = first_difference(r0, ds::encode_schedule_request(request));

  ds::MultiScheduleRequest multi;
  multi.w = {1.0, 1.0};
  multi.z = {1.0};
  const auto m0 = ds::encode_multi_schedule_request(multi);
  multi.request_id = 0xFF;
  layout.multi_request_id =
      first_difference(m0, ds::encode_multi_schedule_request(multi));

  ds::ScheduleResponse response;
  const auto s0 = ds::encode_schedule_response(response);
  response.request_id = 0xFF;
  layout.response_id =
      first_difference(s0, ds::encode_schedule_response(response));

  ds::MultiScheduleResponse multi_response;
  const auto n0 = ds::encode_multi_schedule_response(multi_response);
  multi_response.request_id = 0xFF;
  layout.multi_response_id = first_difference(
      n0, ds::encode_multi_schedule_response(multi_response));
  return layout;
}

dls::codec::Bytes frame_of(ds::FrameType type, dls::codec::Bytes payload) {
  ds::Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return ds::encode_frame(frame);
}

const WireLayout& wire_layout() {
  static const WireLayout layout = probe_layout();
  return layout;
}

}  // namespace

dls::codec::Bytes encode_request_frame(const ds::ScheduleRequest& request) {
  return frame_of(ds::FrameType::kScheduleRequest, ds::encode_schedule_request(request));
}

dls::codec::Bytes encode_request_frame(const ds::MultiScheduleRequest& request) {
  return frame_of(ds::FrameType::kMultiScheduleRequest,
                  ds::encode_multi_schedule_request(request));
}

void stamp_request_id(std::span<std::uint8_t> frame, bool multi,
                      std::uint64_t id) {
  const WireLayout& layout = wire_layout();
  const std::size_t at = ds::kFrameHeaderSize +
                         (multi ? layout.multi_request_id : layout.request_id);
  for (int i = 0; i < 8; ++i) {
    frame[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  const std::uint32_t checksum =
      ds::frame_checksum(frame.subspan(ds::kFrameHeaderSize));
  for (int i = 0; i < 4; ++i) {
    frame[10 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  }
}

ParsedResponse parse_response(ds::FrameType type,
                              std::span<std::uint8_t> payload) {
  const WireLayout& layout = wire_layout();
  bool multi = false;
  if (type == ds::FrameType::kMultiScheduleResponse) {
    multi = true;
  } else if (type != ds::FrameType::kScheduleResponse) {
    throw dls::codec::DecodeError("unexpected frame type in a response");
  }
  const std::size_t at = multi ? layout.multi_response_id : layout.response_id;
  // id (8) + status (1) [+ cache-hit flag (1)]
  if (payload.size() < at + 10) {
    throw dls::codec::DecodeError("response payload too short");
  }
  ParsedResponse parsed;
  for (int i = 7; i >= 0; --i) {
    parsed.id = (parsed.id << 8) | payload[at + static_cast<std::size_t>(i)];
  }
  parsed.status = static_cast<ds::ScheduleStatus>(payload[at + 8]);
  std::memset(payload.data() + at, 0, 8);
  if (!multi) payload[at + 9] = 0;
  parsed.fingerprint = hash_bytes(payload);
  return parsed;
}

std::vector<dls::multiload::LoadSpec> load_specs(const ds::MultiScheduleRequest& request) {
  std::vector<dls::multiload::LoadSpec> specs;
  for (const ds::MultiLoadItem& item : request.loads) {
    specs.push_back({item.load_id, item.size, item.release, item.deadline});
  }
  return specs;
}

dls::multiload::MultiLoadConfig multiload_config(const ds::MultiScheduleRequest& request) {
  dls::multiload::MultiLoadConfig config;
  config.policy = static_cast<dls::multiload::DispatchPolicy>(request.policy);
  config.installments_per_load = request.installments;
  config.ingress_z = request.ingress_z;
  return config;
}

ds::ScheduleResponse expected_response(
    const ds::ScheduleRequest& request,
    const dls::core::MechanismConfig& mechanism) {
  const dls::net::LinearNetwork network(request.w, request.z);
  const dls::dlt::LinearSolution solution =
      dls::dlt::solve_linear_boundary(network);
  ds::ScheduleResponse response;
  response.status = ds::ScheduleStatus::kOk;
  response.alpha = solution.alpha;
  response.makespan = solution.makespan;
  if (request.options.want_payments) {
    const dls::core::DlsLblResult assessment = dls::core::assess_compliant(
        network, network.processing_times(), mechanism);
    for (const dls::core::Assessment& a : assessment.processors) {
      response.payments.push_back(a.money.payment);
    }
    response.total_payment = assessment.total_payment;
  }
  return response;
}

ds::MultiScheduleResponse expected_response(
    const ds::MultiScheduleRequest& request,
    const dls::core::MechanismConfig& mechanism) {
  const dls::net::LinearNetwork network(request.w, request.z);
  const std::vector<dls::multiload::LoadSpec> specs = load_specs(request);
  dls::multiload::MultiLoadSolver solver(network);
  const dls::multiload::MultiLoadSchedule schedule =
      solver.solve(specs, multiload_config(request));
  ds::MultiScheduleResponse response;
  response.status = ds::ScheduleStatus::kOk;
  for (const dls::multiload::LoadOutcome& outcome : schedule.loads) {
    ds::MultiLoadResult result;
    result.load_id = outcome.spec.id;
    result.start = outcome.start;
    result.completion = outcome.completion;
    result.deadline_met = outcome.deadline_met;
    response.loads.push_back(result);
  }
  response.makespan = schedule.makespan;
  response.serialized_makespan = schedule.serialized_makespan;
  if (request.want_payments) {
    const dls::multiload::MultiLoadAssessment assessment =
        dls::multiload::assess_loads(network, network.processing_times(),
                                     specs, mechanism);
    for (std::size_t i = 0; i < assessment.loads.size(); ++i) {
      response.loads[i].total_payment = assessment.loads[i].total_payment;
    }
    response.total_payment = assessment.total_payment;
  }
  return response;
}

std::uint64_t fingerprint(ds::ScheduleResponse response) {
  response.request_id = 0;
  response.cache_hit = false;
  return hash_bytes(ds::encode_schedule_response(response));
}

std::uint64_t fingerprint(ds::MultiScheduleResponse response) {
  response.request_id = 0;
  return hash_bytes(ds::encode_multi_schedule_response(response));
}

}  // namespace sb
