// servebench: drives the serve stack in process with one named workload
// and prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics). The last line of stdout is the JSON result.
//
//   servebench --workload fed_cold_r2 --seed 1 --seconds 20 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       servebench --list\n"
               "workloads:");
  for (const std::string& name : sb::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sb::RunOptions options;
  bool have_workload = false;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    // Metric names and units, for checking BENCHMARK.json.
    for (const auto& [name, unit] : sb::end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
    }
    for (const auto& [name, unit] : sb::per_layer_metrics()) {
      std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 120.0) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    return sb::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 3;
  }
}
