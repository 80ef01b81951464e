// Experiment FIG2 — Figure 2 of the paper: the Gantt chart of an optimal
// execution on an (m+1)-processor boundary-origination chain.
//
// Reproduction target: the *shape* of Figure 2 — sequential bulk
// transfers marching down the chain (communication above each axis),
// computation (below each axis) starting as soon as a processor owns its
// load, and every compute bar ending at the same instant (Theorem 2.1).
// The closing table cross-checks the event-driven simulator against the
// closed forms of eqs. (2.1)-(2.2).
#include <iostream>

#include "common/table.hpp"
#include "common/tolerance.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "sim/gantt.hpp"
#include "sim/linear_execution.hpp"

int main() {
  std::cout << "=== FIG2: Gantt chart of the optimal schedule ===\n\n";

  // The paper's illustration uses a homogeneous chain; we render that
  // plus a heterogeneous one to show the equal-finish property is not an
  // artifact of symmetry.
  struct Case {
    const char* name;
    dls::net::LinearNetwork network;
  };
  const Case cases[] = {
      {"homogeneous chain, m+1 = 6 (w = 1, z = 0.2)",
       dls::net::LinearNetwork::uniform(6, 1.0, 0.2)},
      {"heterogeneous chain, m+1 = 5",
       dls::net::LinearNetwork({1.0, 0.8, 1.2, 0.6, 1.5},
                               {0.10, 0.15, 0.20, 0.30})},
  };

  for (const Case& c : cases) {
    const auto solution = dls::dlt::solve_linear_boundary(c.network);
    const auto result = dls::sim::execute_linear(
        c.network, dls::sim::ExecutionPlan::compliant(c.network, solution));

    dls::sim::GanttOptions options;
    options.width = 88;
    options.title = std::string("--- ") + c.name + " ---";
    render_gantt(std::cout, result.trace, options);

    dls::common::Table table({{"processor", dls::common::Align::kLeft},
                              {"T_i analytic (2.1/2.2)"},
                              {"T_i simulated"},
                              {"rel. error"}});
    const auto analytic = dls::dlt::finish_times(c.network, solution.alpha);
    double worst = 0.0;
    for (std::size_t i = 0; i < c.network.size(); ++i) {
      const double err = dls::common::relative_error(
          analytic[i], result.finish_time[i]);
      worst = std::max(worst, err);
      table.add_row({std::string("P").append(std::to_string(i)),
                     dls::common::Cell(analytic[i], 6),
                     dls::common::Cell(result.finish_time[i], 6),
                     dls::common::Cell(err, 12)});
    }
    table.print(std::cout);
    std::cout << "max relative error: " << worst << "  ("
              << (worst <= 1e-9 ? "PASS" : "FAIL")
              << " <= 1e-9)\n\n";
  }
  return 0;
}
