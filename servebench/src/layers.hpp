// Traced layer replay: times each serve layer from outside, by calling
// its public functions one at a time on the workload's own generated
// inputs (single thread, p50 per call). Spans are recorded only here,
// around the calls; nothing inside the library is instrumented for it.
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace sb {

/// Mean cost (µs) of each stage a request can pass through, over the
/// workload's mix, for the closure model.
struct StageCosts {
  double pipe_rtt = 0.0;     ///< one request/response hop pair
  double encode_req = 0.0;
  double decode_req = 0.0;
  double encode_resp = 0.0;
  double decode_resp = 0.0;
  double key = 0.0;
  double owners = 0.0;
  double lookup = 0.0;
  double dispatch = 0.0;
  double solve_single = 0.0;  ///< per single-load request
  double assess_single = 0.0; ///< per single-load request wanting payments
  double payment_share = 0.0; ///< of single-load requests
  double multi = 0.0;         ///< solve + payments per multi-load request
  double multi_share = 0.0;   ///< of all requests
};

struct LayerReport {
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  StageCosts stages;
};

/// Replays the layers on a sample of `inputs` for about `budget_s`.
LayerReport replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                          double budget_s);

}  // namespace sb
