// Experiment THM5.3a — Lemma 5.3 / Theorem 5.3 (strategyproofness in the
// bid): utility of a strategic processor as a function of its bid, with
// everyone else truthful.
//
// Reproduction targets: every curve is single-peaked with its maximum at
// w_i = t_i (a kink, not a smooth peak — the bonus switches between the
// "own computation" and "tail completion" arms of eq. 2.3 exactly at the
// truth), for terminal AND interior processors, across randomized
// instances. The closing sweep certifies a zero advantage gap on a dense
// grid over many instances.
#include <iostream>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/ascii_plot.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"

int main() {
  std::cout << "=== THM5.3a: utility vs bid (truth-telling dominates) ===\n\n";
  const dls::core::MechanismConfig config;

  // ---- The headline curves on a fixed instance.
  const dls::net::LinearNetwork network({1.0, 1.2, 0.8, 1.5},
                                        {0.2, 0.15, 0.25});
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    const double t = network.w(i);
    const auto grid = dls::analysis::linspace(0.3 * t, 3.0 * t, 49);
    const auto curve =
        dls::analysis::utility_vs_bid(network, i, grid, config);
    dls::common::Series series{"U_" + std::to_string(i), curve.bids,
                               curve.utilities, '*'};
    dls::common::plot(
        std::cout, series,
        {.width = 66,
         .height = 13,
         .x_label = "bid w_" + std::to_string(i) +
                    " (truth t = " + dls::common::format_double(t, 2) + ")",
         .y_label = "utility",
         .title = std::string("P").append(std::to_string(i)) +
                  (i + 1 == network.size() ? " (terminal)" : " (interior)")});
    const std::size_t peak = dls::common::argmax(curve.utilities);
    std::cout << "peak at bid = " << curve.bids[peak]
              << ", truth = " << t << ", U(truth) = "
              << curve.utility_at_truth << "\n\n";
  }

  // ---- Table: advantage gap per position on the fixed instance.
  {
    dls::common::Table table({{"processor", dls::common::Align::kLeft},
                              {"U(truth)"},
                              {"best grid bid"},
                              {"max advantage over truth"},
                              {"strategyproof?", dls::common::Align::kLeft}});
    for (std::size_t i = 1; i < network.size(); ++i) {
      const double t = network.w(i);
      const auto grid = dls::analysis::logspace(0.2 * t, 5.0 * t, 201);
      const auto curve =
          dls::analysis::utility_vs_bid(network, i, grid, config);
      const double gap = dls::analysis::max_truth_advantage_gap(curve);
      const std::size_t best = dls::common::argmax(curve.utilities);
      table.add_row({std::string("P").append(std::to_string(i)),
                     dls::common::Cell(curve.utility_at_truth, 6),
                     dls::common::Cell(curve.bids[best], 4),
                     dls::common::Cell(gap, 12),
                     gap <= 1e-9 ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- Randomized certification sweep (threaded; per-index RNG streams
  // keep the output identical at any worker count).
  {
    constexpr std::size_t kInstances = 600;
    std::vector<double> gap(kInstances);
    dls::exec::ThreadPool::global().parallel_for(kInstances, [&](std::size_t rep) {
      dls::common::Rng rng(531 + 7919 * rep);
      const auto m = static_cast<std::size_t>(rng.uniform_int(1, 12));
      const auto net = dls::net::LinearNetwork::random(
          m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
          dls::analysis::kZLo, dls::analysis::kZHi);
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(m)));
      const double t = net.w(i);
      const auto grid = dls::analysis::logspace(0.2 * t, 5.0 * t, 61);
      const auto curve = dls::analysis::utility_vs_bid(net, i, grid, config);
      gap[rep] = dls::analysis::max_truth_advantage_gap(curve);
    });
    dls::common::OnlineStats gaps;
    int violations = 0;
    for (const double g : gap) {
      gaps.add(g);
      if (g > 1e-9) ++violations;
    }
    std::cout << "randomized certification: " << kInstances
              << " (instance, processor) pairs x 61-point bid grids ("
              << dls::exec::ThreadPool::global().worker_count()
              << " threads)\n"
              << "max advantage over truth: " << gaps.max()
              << "  violations: " << violations << " ("
              << (violations == 0 ? "PASS" : "FAIL") << ")\n";
  }
  return 0;
}
