// Experiment THM5.3b — Lemma 5.3 case (ii): utility as a function of the
// actual execution rate w̃_i >= t_i under a truthful bid.
//
// Reproduction targets: utility is maximal at full-capacity execution
// (w̃ = t) and non-increasing in the slowdown; for interior processors
// the penalty starts immediately (ŵ_j = α̂_j w̃_j kicks in as soon as
// w̃ > w), because the mechanism verifies actual rates with the
// tamper-proof meter.
#include <iostream>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/ascii_plot.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "net/networks.hpp"

int main() {
  std::cout << "=== THM5.3b: utility vs execution speed "
               "(full capacity dominates) ===\n\n";
  const dls::core::MechanismConfig config;
  const dls::net::LinearNetwork network({1.0, 1.2, 0.8, 1.5},
                                        {0.2, 0.15, 0.25});

  // ---- Curves for every strategic position.
  std::vector<dls::common::Series> series;
  const char markers[] = {'1', '2', '3'};
  const auto mults = dls::analysis::linspace(1.0, 2.5, 31);
  for (std::size_t i = 1; i < network.size(); ++i) {
    const auto curve =
        dls::analysis::utility_vs_speed(network, i, mults, config);
    dls::common::Series s;
    s.name = std::string("P").append(std::to_string(i));
    s.marker = markers[i - 1];
    s.xs = mults;
    s.ys = curve.utilities;
    series.push_back(std::move(s));
  }
  dls::common::plot(std::cout, series,
                    {.width = 66,
                     .height = 14,
                     .x_label = "slowdown factor w̃/t (1 = full capacity)",
                     .y_label = "utility",
                     .title = "utility vs actual execution rate"});
  std::cout << '\n';

  // ---- Table at selected slowdowns.
  {
    dls::common::Table table({{"slowdown"}, {"U_1"}, {"U_2"}, {"U_3"}});
    for (const double f : {1.0, 1.1, 1.25, 1.5, 2.0, 2.5}) {
      std::vector<dls::common::Cell> row = {dls::common::Cell(f, 2)};
      for (std::size_t i = 1; i < network.size(); ++i) {
        const auto curve = dls::analysis::utility_vs_speed(
            network, i, std::vector<double>{f}, config);
        row.push_back(dls::common::Cell(curve.utilities[0], 6));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- Randomized monotonicity certification.
  {
    dls::common::Rng rng(8181);
    int violations = 0;
    dls::common::OnlineStats loss_at_2x;
    constexpr int kInstances = 200;
    for (int rep = 0; rep < kInstances; ++rep) {
      const auto m = static_cast<std::size_t>(rng.uniform_int(1, 12));
      const auto net = dls::net::LinearNetwork::random(
          m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
          dls::analysis::kZLo, dls::analysis::kZHi);
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(m)));
      const auto curve = dls::analysis::utility_vs_speed(
          net, i, dls::analysis::linspace(1.0, 2.0, 21), config);
      for (std::size_t k = 1; k < curve.utilities.size(); ++k) {
        if (curve.utilities[k] > curve.utilities[k - 1] + 1e-9) {
          ++violations;
          break;
        }
      }
      loss_at_2x.add(curve.utility_at_truth - curve.utilities.back());
    }
    std::cout << "randomized monotonicity: " << kInstances
              << " curves, violations = " << violations << " ("
              << (violations == 0 ? "PASS" : "FAIL") << ")\n"
              << "utility lost by running at half speed: mean "
              << loss_at_2x.mean() << ", max " << loss_at_2x.max() << '\n';
  }
  return 0;
}
