// Experiment THM5.2 — Theorem 5.2: selfish-and-annoying agents and the
// solution bonus S.
//
// A data corruptor gains nothing and loses nothing under the base
// mechanism (its utility is unchanged — that is exactly why fines cannot
// deter it). With the solution bonus enabled, corrupting the data
// forfeits S for the corruptor (and everyone else), so a
// welfare-maximising agent won't do it.
//
// Reproduction targets: ΔU(corruptor) = 0 without S; ΔU = −S with S,
// for every position and instance.
#include <iostream>

#include "agents/agent.hpp"
#include "analysis/experiments.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "net/networks.hpp"
#include "protocol/runner.hpp"

namespace {

using dls::agents::Behavior;
using dls::agents::Population;
using dls::agents::StrategicAgent;

Population population_for(const dls::net::LinearNetwork& net,
                          std::size_t deviant, const Behavior& b) {
  std::vector<StrategicAgent> agents;
  for (std::size_t i = 1; i < net.size(); ++i) {
    agents.push_back(StrategicAgent{
        i, net.w(i), i == deviant ? b : Behavior::truthful()});
  }
  return Population(std::move(agents));
}

}  // namespace

int main() {
  std::cout << "=== THM5.2: the solution bonus S vs data corruption ===\n\n";

  const dls::net::LinearNetwork net({1.0, 1.2, 0.8, 1.5},
                                    {0.2, 0.15, 0.25});
  const double s_values[] = {0.0, 0.01, 0.05, 0.2};

  dls::common::Table table({{"S"},
                            {"corruptor", dls::common::Align::kLeft},
                            {"U honest"},
                            {"U corrupting"},
                            {"delta"},
                            {"deterred?", dls::common::Align::kLeft}});
  for (const double s : s_values) {
    dls::protocol::ProtocolOptions options;
    options.mechanism.solution_bonus_enabled = s > 0.0;
    options.mechanism.solution_bonus = s;
    const auto honest = dls::protocol::run_protocol(
        net, population_for(net, 0, Behavior::truthful()), options);
    for (std::size_t deviant = 1; deviant < net.size(); ++deviant) {
      const auto corrupt = dls::protocol::run_protocol(
          net, population_for(net, deviant, Behavior::data_corruptor()),
          options);
      const double hu = honest.processors[deviant].utility;
      const double cu = corrupt.processors[deviant].utility;
      table.add_row({dls::common::Cell(s, 2),
                     std::string("P").append(std::to_string(deviant)),
                     dls::common::Cell(hu, 4), dls::common::Cell(cu, 4),
                     dls::common::Cell(cu - hu, 4),
                     cu < hu - 1e-12 ? "yes" : "no (indifferent)"});
    }
  }
  table.print(std::cout);

  // Randomized check that the delta is exactly −S everywhere.
  dls::common::Rng rng(808);
  int mismatches = 0;
  constexpr int kInstances = 100;
  for (int rep = 0; rep < kInstances; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const auto network = dls::net::LinearNetwork::random(
        m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
        dls::analysis::kZLo, dls::analysis::kZHi);
    dls::protocol::ProtocolOptions options;
    options.mechanism.solution_bonus_enabled = true;
    options.mechanism.solution_bonus = 0.05;
    const auto deviant = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(m)));
    const auto honest = dls::protocol::run_protocol(
        network, population_for(network, 0, Behavior::truthful()), options);
    const auto corrupt = dls::protocol::run_protocol(
        network, population_for(network, deviant, Behavior::data_corruptor()),
        options);
    const double delta = corrupt.processors[deviant].utility -
                         honest.processors[deviant].utility;
    if (std::abs(delta + 0.05) > 1e-9) ++mismatches;
  }
  std::cout << "\nrandomized: " << kInstances
            << " instances, delta != -S in " << mismatches << " cases ("
            << (mismatches == 0 ? "PASS" : "FAIL") << ")\n";
  std::cout << "Without S the corruptor is indifferent; any S > 0 makes "
               "corruption strictly dominated (Theorem 5.2).\n";
  return 0;
}
