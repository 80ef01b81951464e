// Experiment THM5.4 — Lemma 5.4 / Theorem 5.4 (voluntary participation):
// the distribution of truthful utilities over randomized instances.
//
// Reproduction targets: the minimum truthful utility is >= 0 on every
// instance (in this construction strictly positive: U_j = w_{j-1} −
// w̄_{j-1} and the reduction always improves on the bare predecessor);
// profit decays with position in the chain (deeper processors relieve a
// smaller marginal burden); and the mechanism's budget (total payments)
// scales with the chain, not with any one agent's leverage.
#include <iostream>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/dls_lbl.hpp"
#include "net/networks.hpp"

int main() {
  std::cout << "=== THM5.4: voluntary participation ===\n\n";
  const dls::core::MechanismConfig config;

  // ---- Distribution of truthful utilities across random instances.
  {
    dls::common::Rng rng(90210);
    dls::common::OnlineStats min_u, mean_u, payments;
    std::vector<double> minima;
    int negative = 0;
    constexpr int kInstances = 500;
    for (int rep = 0; rep < kInstances; ++rep) {
      const auto m = static_cast<std::size_t>(rng.uniform_int(1, 30));
      const auto net = dls::net::LinearNetwork::random(
          m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
          dls::analysis::kZLo, dls::analysis::kZHi);
      const auto sample = dls::analysis::truthful_participation(net, config);
      min_u.add(sample.min_utility);
      mean_u.add(sample.mean_utility);
      payments.add(sample.total_payment);
      minima.push_back(sample.min_utility);
      if (sample.min_utility < 0.0) ++negative;
    }
    std::cout << kInstances << " random instances (m in [1,30]):\n";
    dls::common::Table table({{"statistic", dls::common::Align::kLeft},
                              {"min"},
                              {"p10"},
                              {"median"},
                              {"mean"},
                              {"max"}});
    table.add_row({"per-instance min utility",
                   dls::common::Cell(min_u.min(), 6),
                   dls::common::Cell(dls::common::percentile(minima, 10), 6),
                   dls::common::Cell(dls::common::percentile(minima, 50), 6),
                   dls::common::Cell(min_u.mean(), 6),
                   dls::common::Cell(min_u.max(), 6)});
    table.add_row({"per-instance mean utility",
                   dls::common::Cell(mean_u.min(), 6), "", "",
                   dls::common::Cell(mean_u.mean(), 6),
                   dls::common::Cell(mean_u.max(), 6)});
    table.print(std::cout);
    std::cout << "instances with a negative truthful utility: " << negative
              << " (" << (negative == 0 ? "PASS" : "FAIL")
              << " — Theorem 5.4 promises none)\n\n";
  }

  // ---- Profit by chain position (homogeneous chain shows the shape).
  {
    std::cout << "--- utility by position, homogeneous chain "
                 "(w = 1, z = 0.2, m+1 = 10) ---\n";
    const auto net = dls::net::LinearNetwork::uniform(10, 1.0, 0.2);
    std::vector<double> actual(net.processing_times().begin(),
                               net.processing_times().end());
    const auto result = dls::core::assess_compliant(net, actual, config);
    dls::common::Table table({{"processor", dls::common::Align::kLeft},
                              {"alpha"},
                              {"bonus B = w_{j-1} - w̄_{j-1}"},
                              {"utility"}});
    for (std::size_t j = 1; j < net.size(); ++j) {
      const auto& a = result.processors[j];
      table.add_row({std::string("P").append(std::to_string(j)),
                     dls::common::Cell(a.alpha, 4),
                     dls::common::Cell(a.money.bonus, 6),
                     dls::common::Cell(a.money.utility, 6)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- Mechanism budget vs chain length.
  {
    std::cout << "--- mechanism budget (w = 1, z = 0.2) ---\n";
    dls::common::Table table({{"m+1"},
                              {"makespan"},
                              {"total payments"},
                              {"payments / compute cost"}});
    for (const std::size_t n : dls::analysis::int_ladder(2, 64)) {
      const auto net = dls::net::LinearNetwork::uniform(n, 1.0, 0.2);
      const auto sample = dls::analysis::truthful_participation(net, config);
      // The whole unit load at w = 1 costs exactly 1 to compute.
      table.add_row({n, dls::common::Cell(sample.makespan, 4),
                     dls::common::Cell(sample.total_payment, 4),
                     dls::common::Cell(sample.total_payment / 1.0, 4)});
    }
    table.print(std::cout);
    std::cout << "\nThe bonus column: payments overshoot raw compute cost — "
                 "the price of truthfulness\n(the classic VCG-style "
                 "budget overhead, here bounded by Σ w_{j-1}).\n";
  }
  return 0;
}
