// Wire format for the scheduling service's request/response pair.
//
// A ScheduleRequest carries a full problem instance — the chain topology
// (w, z), a round tag and per-request options — and a ScheduleResponse
// carries either the Algorithm-1 allocation (plus, on request, the
// Phase IV payment vector) or an explicit refusal: shed under admission
// pressure, expired past its deadline, or a decode/infeasibility error.
//
// Encodings follow the codec/wire discipline: canonical little-endian
// layout, strict decode (unknown magic, truncation, trailing bytes and
// malformed counts are rejected), and doubles travel as IEEE-754 bit
// patterns so a cached response is bit-identical to a fresh one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/bytes.hpp"

namespace dls::serve {

/// Per-request knobs carried inside the request frame.
struct ScheduleOptions {
  /// Protocol round tag (diagnostic; echoed into nothing yet).
  std::uint64_t round = 1;
  /// Admission-relative deadline in microseconds; 0 defers to the
  /// service's default (which may itself be "none").
  double deadline_us = 0.0;
  /// When true the response also carries the Phase IV payment vector
  /// Q_0..Q_m for compliant truthful execution.
  bool want_payments = false;
};

/// One scheduling problem: solve DLS-LBL on the chain (w, z).
struct ScheduleRequest {
  std::uint64_t request_id = 0;
  std::vector<double> w;  ///< m+1 processing times (P_0..P_m)
  std::vector<double> z;  ///< m link times (l_1..l_m)
  ScheduleOptions options;
};

enum class ScheduleStatus : std::uint8_t {
  kOk = 0,       ///< alpha/makespan (and payments if asked) are valid
  kShed = 1,     ///< admission queue full — retry with backoff
  kExpired = 2,  ///< deadline passed before the solve started
  kError = 3,    ///< malformed or infeasible request; see `error`
  kDegraded = 4, ///< brown-out: cache miss shed under load; see
                 ///< `retry_after_us` for when to come back
};

std::string to_string(ScheduleStatus status);

struct ScheduleResponse {
  std::uint64_t request_id = 0;
  ScheduleStatus status = ScheduleStatus::kOk;
  bool cache_hit = false;
  std::string error;           ///< empty unless status is kError/kDegraded
  std::vector<double> alpha;   ///< load fractions α_0..α_m (kOk only)
  double makespan = 0.0;       ///< T(α*) (kOk only)
  std::vector<double> payments;  ///< Q_0..Q_m when want_payments (kOk)
  double total_payment = 0.0;    ///< Σ_{j>=1} Q_j (kOk + want_payments)
  /// Brown-out hint (kDegraded only): how long the client should wait
  /// before retrying, in microseconds; 0 when the server has no advice.
  double retry_after_us = 0.0;
};

codec::Bytes encode_schedule_request(const ScheduleRequest& request);
ScheduleRequest decode_schedule_request(std::span<const std::uint8_t> data);

codec::Bytes encode_schedule_response(const ScheduleResponse& response);
ScheduleResponse decode_schedule_response(std::span<const std::uint8_t> data);

/// Canonical cache key for a problem instance: the byte encoding of the
/// (w, z) vectors alone. Two requests with the same topology and bids
/// map to the same key regardless of request id, round or options, and
/// the solver is deterministic, so a cached solution is bit-identical
/// to a fresh one.
codec::Bytes canonical_topology_key(std::span<const double> w,
                                    std::span<const double> z);

// The helpers below address the request_id field at a fixed offset:
// right after the CANONICAL encoding of the payload's magic string. The
// codec's reader also accepts overlong varints, so a payload that
// decodes may still put the id elsewhere; each helper checks the magic
// bytes first and treats such a payload as carrying no id.

/// Replay key for the ShardRouter's verbatim response cache: the bytes
/// of an encoded request AFTER the request_id field. They cover the
/// round tag, deadline, payments flag and the full (w, z) topology, so
/// two requests with equal suffixes must receive byte-identical
/// responses up to the echoed id. Returns an empty span when `payload`
/// carries no request_id at the canonical offset.
std::span<const std::uint8_t> schedule_request_replay_key(
    std::span<const std::uint8_t> payload);

/// Reads the request_id of an encoded request without decoding the
/// rest; 0 when the payload carries no request_id at the canonical
/// offset.
std::uint64_t schedule_request_id(std::span<const std::uint8_t> payload);

/// True when an encoded request / response starts with its canonical
/// magic encoding followed by a request_id, so the patch helpers below
/// apply to it.
bool has_canonical_request_id(std::span<const std::uint8_t> payload);
bool has_canonical_response_id(std::span<const std::uint8_t> payload);

/// Overwrites the request_id field of an encoded request in place, the
/// twin of patch_schedule_response_id: the router forwards a client's
/// validated payload under its own per-link id without re-encoding it.
/// Throws codec::DecodeError unless has_canonical_request_id(payload).
void patch_schedule_request_id(codec::Bytes& payload,
                               std::uint64_t request_id);

/// Overwrites the request_id field of an encoded response in place —
/// the id is a fixed-width u64 at a fixed offset, so a cached response
/// encoding can be replayed for a new request. Throws
/// codec::DecodeError unless has_canonical_response_id(payload).
void patch_schedule_response_id(codec::Bytes& payload,
                                std::uint64_t request_id);

/// The replicated quorum's compare: true when two encoded responses are
/// byte-identical everywhere except the per-hop fields — the request_id
/// and the cache-hit byte. Both payloads must already have decoded as
/// responses; a non-canonical but equivalent encoding (the magic's
/// included) compares unequal.
bool same_schedule_answer(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b);

}  // namespace dls::serve
