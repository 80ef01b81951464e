// Experiment FIG3/ALG1 — Figure 3 and Algorithm 1: the recursive
// equivalent-processor reduction.
//
// Part 1 prints the reduction trace for a small chain (the sequence of
// collapses Figure 3 illustrates) and validates eq. (2.4) at every step.
// Part 2 is a google-benchmark of Algorithm 1 itself: the solver is a
// linear-time recurrence, so cost must scale ~O(m) out to a million
// processors.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

void print_reduction_trace() {
  std::cout << "=== ALG1: equivalent-processor reduction trace ===\n\n";
  const dls::net::LinearNetwork network({1.0, 0.8, 1.2, 0.6, 1.5},
                                        {0.10, 0.15, 0.20, 0.30});
  const auto solution = dls::dlt::solve_linear_boundary(network);

  dls::common::Table table({{"step"},
                            {"collapse", dls::common::Align::kLeft},
                            {"alpha_hat_i"},
                            {"w_bar_{i+1} (tail)"},
                            {"z_{i+1}"},
                            {"w_bar_i (result)"}});
  int step = 1;
  for (const auto& s : solution.steps) {
    table.add_row({step++,
                   std::string("P").append(std::to_string(s.index)) +
                       " + equiv(P" + std::to_string(s.index + 1) + "..P4)",
                   dls::common::Cell(s.alpha_hat, 6),
                   dls::common::Cell(s.tail_w, 6),
                   dls::common::Cell(s.link_z, 6),
                   dls::common::Cell(s.equivalent_w, 6)});
  }
  table.print(std::cout);
  std::cout << "\nfinal equivalent processor: w_bar_0 = "
            << solution.equivalent_w[0]
            << " = makespan of the whole chain (eq. 2.4)\n\n";
}

void solver_benchmark(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dls::common::Rng rng(7);
  const dls::net::LinearNetwork network =
      dls::net::LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
  for (auto _ : state) {
    auto solution = dls::dlt::solve_linear_boundary(network);
    benchmark::DoNotOptimize(solution.makespan);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void finish_times_benchmark(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dls::common::Rng rng(7);
  const dls::net::LinearNetwork network =
      dls::net::LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
  const auto solution = dls::dlt::solve_linear_boundary(network);
  for (auto _ : state) {
    auto times = dls::dlt::finish_times(network, solution.alpha);
    benchmark::DoNotOptimize(times.data());
  }
}

BENCHMARK(solver_benchmark)
    ->RangeMultiplier(8)
    ->Range(8, 1 << 20)
    ->Complexity(benchmark::oN);
BENCHMARK(finish_times_benchmark)->RangeMultiplier(16)->Range(16, 1 << 20);

}  // namespace

int main(int argc, char** argv) {
  print_reduction_trace();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
