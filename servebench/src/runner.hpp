// One benchmark run: provenance, set-up, the measured phases, the
// oracle verdict and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sb {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Metric names and units, in output order: the end-to-end set (printed
/// with tracing off) and the per-layer set (printed by the traced run).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Runs one workload and prints the report; the last stdout line is the
/// JSON result. Returns the process exit code: 0 when every answer
/// passed the oracle and every count reconciled.
int run(const RunOptions& options);

}  // namespace sb
