// Wire helpers and the correctness oracle of the serve-path benchmark.
//
// Every answer the program returns is fingerprinted on receipt (request
// id and cache-hit flag zeroed, then hashed) and compared, off the
// clock, with the fingerprint of the answer computed directly from the
// request: dlt::solve_linear_boundary plus core::assess_compliant for a
// single load, multiload::MultiLoadSolver plus multiload::assess_loads
// for a multi-load batch. Equal fingerprints mean bit-identical alpha,
// makespan, completions and payments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/bytes.hpp"
#include "core/payment_rules.hpp"
#include "multiload/solver.hpp"
#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/service_wire.hpp"

namespace sb {

/// Encodes `request` as a complete frame; the id field is stamped later.
dls::codec::Bytes encode_request_frame(const dls::serve::ScheduleRequest& request);
dls::codec::Bytes encode_request_frame(const dls::serve::MultiScheduleRequest& request);

/// Writes `id` into a request frame's id field and refreshes the frame
/// checksum, so every request on the wire carries a fresh id.
void stamp_request_id(std::span<std::uint8_t> frame, bool multi,
                      std::uint64_t id);

struct ParsedResponse {
  std::uint64_t id = 0;
  dls::serve::ScheduleStatus status = dls::serve::ScheduleStatus::kError;
  std::uint64_t fingerprint = 0;  ///< of the normalised payload
};

/// Reads id and status from a response payload, zeroes the id (and the
/// single-load cache-hit flag) in place and fingerprints the result.
/// Throws codec::DecodeError when the payload is too short or the frame
/// type is not a response.
ParsedResponse parse_response(dls::serve::FrameType type,
                              std::span<std::uint8_t> payload);

/// A multi-load request's loads and dispatch knobs, mapped the way the
/// service maps them onto multiload::MultiLoadSolver.
std::vector<dls::multiload::LoadSpec> load_specs(
    const dls::serve::MultiScheduleRequest& request);
dls::multiload::MultiLoadConfig multiload_config(
    const dls::serve::MultiScheduleRequest& request);

/// The answer the service must give, computed without the service.
dls::serve::ScheduleResponse expected_response(
    const dls::serve::ScheduleRequest& request,
    const dls::core::MechanismConfig& mechanism);
dls::serve::MultiScheduleResponse expected_response(
    const dls::serve::MultiScheduleRequest& request,
    const dls::core::MechanismConfig& mechanism);

/// Fingerprint of a response as parse_response would compute it.
std::uint64_t fingerprint(dls::serve::ScheduleResponse response);
std::uint64_t fingerprint(dls::serve::MultiScheduleResponse response);

}  // namespace sb
