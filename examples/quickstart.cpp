// Quickstart: schedule a divisible load on a 5-processor daisy chain with
// the DLS-LBL mechanism and look at who computes what, who finishes when,
// and who gets paid how much.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/table.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

int main() {
  using dls::common::Align;
  using dls::common::Table;

  // A heterogeneous chain: the root P0 holds the load; links get slower
  // toward the far end. Rates are "seconds per unit load".
  const dls::net::LinearNetwork network(
      /*w=*/{1.0, 0.8, 1.2, 0.6, 1.5},
      /*z=*/{0.10, 0.15, 0.20, 0.30});

  std::cout << "Network: " << network.describe() << "\n\n";

  // --- Step 1: the optimal allocation (Algorithm 1). --------------------
  const dls::dlt::LinearSolution solution =
      dls::dlt::solve_linear_boundary(network);

  std::cout << "Optimal allocation (Theorem 2.1: everyone finishes at T = "
            << solution.makespan << "):\n\n";
  {
    Table table({{"processor", Align::kLeft},
                 {"alpha", Align::kRight},
                 {"alpha_hat", Align::kRight},
                 {"D (received)", Align::kRight},
                 {"finish time", Align::kRight}});
    const auto finish = dls::dlt::finish_times(network, solution.alpha);
    for (std::size_t i = 0; i < network.size(); ++i) {
      table.add_row({std::string("P").append(std::to_string(i)),
                     dls::common::Cell(solution.alpha[i], 4),
                     dls::common::Cell(solution.alpha_hat[i], 4),
                     dls::common::Cell(solution.received[i], 4),
                     dls::common::Cell(finish[i], 4)});
    }
    table.print(std::cout);
  }

  // --- Step 2: the mechanism's payments. --------------------------------
  // With every processor truthful and compliant, utilities are exactly
  // the bonuses B_j = w_{j-1} - w̄_{j-1} >= 0 (voluntary participation).
  std::vector<double> actual_rates(network.processing_times().begin(),
                                   network.processing_times().end());
  const dls::core::DlsLblResult result = dls::core::assess_compliant(
      network, actual_rates, dls::core::MechanismConfig{});

  std::cout << "\nDLS-LBL payments for the truthful run:\n\n";
  {
    Table table({{"processor", Align::kLeft},
                 {"cost -V", Align::kRight},
                 {"compensation C", Align::kRight},
                 {"bonus B", Align::kRight},
                 {"payment Q", Align::kRight},
                 {"utility U", Align::kRight}});
    for (const auto& a : result.processors) {
      table.add_row({std::string("P").append(std::to_string(a.index)),
                     dls::common::Cell(-a.money.valuation, 4),
                     dls::common::Cell(a.money.compensation, 4),
                     dls::common::Cell(a.money.bonus, 4),
                     dls::common::Cell(a.money.payment, 4),
                     dls::common::Cell(a.money.utility, 4)});
    }
    table.print(std::cout);
  }
  std::cout << "\nMechanism outlay: " << result.mechanism_cost
            << " (total payments incl. root reimbursement)\n";
  std::cout << "Every strategic utility is >= 0 and maximised by truthful "
               "bidding (Theorems 5.3-5.4).\n";
  return 0;
}
