#include "core/dls_lbl.hpp"

#include "check/mechanism_invariants.hpp"
#include "common/discipline.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::core {

namespace {

/// Shared body of every assess flavour: `result.solution` must already
/// hold Algorithm 1 on the bid network; fills the per-processor
/// assessments and totals, reusing result's buffers. When
/// `computed_loads` is empty, compliant execution (α̃ = α) is assumed.
void fill_assessments(const net::LinearNetwork& bid_network,
                      std::span<const double> actual_rates,
                      std::span<const double> computed_loads,
                      const MechanismConfig& config, bool solution_found,
                      DlsLblResult& result) {
  const std::size_t n = bid_network.size();
  DLS_REQUIRE(n >= 2, "the mechanism needs at least one strategic worker");
  DLS_REQUIRE(actual_rates.size() == n, "actual_rates size mismatch");
  DLS_REQUIRE(computed_loads.empty() || computed_loads.size() == n,
              "computed_loads size mismatch");
  DLS_SPAN_ARGS("payment.assess", "{\"m\":" + std::to_string(n - 1) + "}");
  DLS_COUNT("mechanism.assessments");

  const dlt::LinearSolution& sol = result.solution;
  if (computed_loads.empty()) computed_loads = sol.alpha;

  result.processors.resize(n);
  result.total_payment = 0.0;
  result.mechanism_cost = 0.0;

  // The obedient root: reimbursed exactly its cost, zero utility (4.3).
  {
    Assessment& root = result.processors[0];
    root.index = 0;
    root.bid_rate = bid_network.w(0);
    root.actual_rate = actual_rates[0];
    root.alpha = sol.alpha[0];
    root.alpha_hat = sol.alpha_hat[0];
    root.equivalent_bid = sol.equivalent_w[0];
    root.computed = computed_loads[0];
    root.w_hat = actual_rates[0];
    root.money.valuation = -root.computed * root.actual_rate;
    root.money.compensation = root.computed * root.actual_rate;
    root.money.payment = root.money.compensation;
    root.money.utility = 0.0;
  }

  for (std::size_t j = 1; j < n; ++j) {
    DLS_SPAN_DETAIL("payment.evaluate");
    Assessment& a = result.processors[j];
    a.index = j;
    a.bid_rate = bid_network.w(j);
    a.actual_rate = actual_rates[j];
    a.alpha = sol.alpha[j];
    a.alpha_hat = sol.alpha_hat[j];
    a.equivalent_bid = sol.equivalent_w[j];
    a.computed = computed_loads[j];
    a.w_hat = config.verify_actual_rates
                  ? w_hat(/*terminal=*/j + 1 == n, a.bid_rate,
                          a.actual_rate, a.alpha_hat, a.equivalent_bid)
                  : a.equivalent_bid;  // ablation: trust the bids blindly

    PaymentInputs in;
    in.predecessor_bid = bid_network.w(j - 1);
    in.link_z = bid_network.z(j);
    in.alpha_hat_pred = sol.alpha_hat[j - 1];
    in.alpha = a.alpha;
    in.computed = a.computed;
    in.actual_rate = a.actual_rate;
    in.w_hat = a.w_hat;
    in.solution_found = solution_found;
    a.money = evaluate_payment(in, config);

    // Term-level metrics live here, on real mechanism runs — NOT in
    // evaluate_payment, which is shared with the ns-scale counterfactual
    // rebid path.
    DLS_OBSERVE("mechanism.bonus_paid", a.money.bonus,
                {0.0, 0.01, 0.1, 0.5, 1.0, 5.0});
    DLS_OBSERVE("mechanism.compensation_paid", a.money.compensation,
                {0.0, 0.01, 0.1, 0.5, 1.0, 5.0});
    DLS_OBSERVE("mechanism.recompense_paid", a.money.recompense,
                {0.0, 0.01, 0.1, 0.5, 1.0, 5.0});
    if (a.money.solution_bonus > 0.0) {
      DLS_COUNT("mechanism.solution_bonus_paid");
    }

    result.total_payment += a.money.payment;
  }
  result.mechanism_cost =
      result.total_payment + result.processors[0].money.compensation;

  // Debug/CI builds audit the payment decomposition (4.5)-(4.13). The
  // embedded solution was already audited by the solver's own wiring at
  // the same level, so skip the duplicate O(n) sweep.
  if constexpr (check::enabled(2)) {
    check::check_assessment(bid_network, result, config,
                            check::kPaymentAuditTol,
                            /*check_solution=*/false);
  }
}

}  // namespace

DlsLblResult assess_dls_lbl(const net::LinearNetwork& bid_network,
                            std::span<const double> actual_rates,
                            std::span<const double> computed_loads,
                            const MechanismConfig& config,
                            bool solution_found) {
  DLS_REQUIRE(computed_loads.size() == bid_network.size(),
              "computed_loads size mismatch");
  DlsLblResult result;
  dlt::solve_linear_boundary_into(bid_network, result.solution);
  fill_assessments(bid_network, actual_rates, computed_loads, config,
                   solution_found, result);
  return result;
}

DlsLblResult assess_compliant(const net::LinearNetwork& bid_network,
                              std::span<const double> actual_rates,
                              const MechanismConfig& config) {
  DlsLblResult result;
  dlt::solve_linear_boundary_into(bid_network, result.solution);
  fill_assessments(bid_network, actual_rates, /*computed_loads=*/{}, config,
                   /*solution_found=*/true, result);
  return result;
}

DLS_HOT_NOALLOC
const DlsLblResult& assess_dls_lbl(const net::LinearNetwork& bid_network,
                                   std::span<const double> actual_rates,
                                   std::span<const double> computed_loads,
                                   const MechanismConfig& config,
                                   bool solution_found, AssessWorkspace& ws) {
  DLS_REQUIRE(computed_loads.size() == bid_network.size(),
              "computed_loads size mismatch");
  dlt::solve_linear_boundary_into(bid_network, ws.result.solution,
                                  /*want_steps=*/false);
  fill_assessments(bid_network, actual_rates, computed_loads, config,
                   solution_found, ws.result);
  return ws.result;
}

DLS_HOT_NOALLOC
const DlsLblResult& assess_compliant(const net::LinearNetwork& bid_network,
                                     std::span<const double> actual_rates,
                                     const MechanismConfig& config,
                                     AssessWorkspace& ws) {
  dlt::solve_linear_boundary_into(bid_network, ws.result.solution,
                                  /*want_steps=*/false);
  fill_assessments(bid_network, actual_rates, /*computed_loads=*/{}, config,
                   /*solution_found=*/true, ws.result);
  return ws.result;
}

DLS_HOT_NOALLOC
const DlsLblResult& assess_compliant_from_batch(
    const net::LinearNetwork& bid_network, const dlt::BatchLinearSolver& batch,
    std::size_t lane, std::span<const double> actual_rates,
    const MechanismConfig& config, AssessWorkspace& ws) {
  DLS_REQUIRE(batch.processors() == bid_network.size(),
              "batch lane does not match the bid network's chain length");
  batch.extract(lane, ws.result.solution);
  fill_assessments(bid_network, actual_rates, /*computed_loads=*/{}, config,
                   /*solution_found=*/true, ws.result);
  return ws.result;
}

DlsLblResult assess_compliant_from_solution(
    const net::LinearNetwork& bid_network, const dlt::LinearSolution& solution,
    std::span<const double> actual_rates, const MechanismConfig& config) {
  const std::size_t n = bid_network.size();
  DLS_REQUIRE(solution.alpha.size() == n && solution.alpha_hat.size() == n &&
                  solution.equivalent_w.size() == n,
              "solution does not match the bid network's chain length");
  DlsLblResult result;
  result.solution = solution;
  fill_assessments(bid_network, actual_rates, /*computed_loads=*/{}, config,
                   /*solution_found=*/true, result);
  return result;
}

double utility_under_bid(const net::LinearNetwork& true_network,
                         std::size_t index, double bid, double actual_rate,
                         const MechanismConfig& config) {
  DLS_REQUIRE(actual_rate >= true_network.w(index) - 1e-12,
              "cannot execute faster than the true rate");
  CounterfactualMechanism mech(true_network,
                               true_network.processing_times(), config);
  return mech.utility(index, bid, actual_rate);
}

CounterfactualMechanism::CounterfactualMechanism(
    const net::LinearNetwork& bid_base, std::span<const double> actual_rates,
    const MechanismConfig& config)
    : solver_(bid_base),
      actual_(actual_rates.begin(), actual_rates.end()),
      config_(config) {
  DLS_REQUIRE(bid_base.size() >= 2,
              "the mechanism needs at least one strategic worker");
  DLS_REQUIRE(actual_.size() == bid_base.size(),
              "actual_rates size mismatch");
}

// Mirror of assess_dls_lbl for one queried processor under compliant
// execution (α̃ = α from the counterfactual bid solution). Shared by the
// single-bid and batched paths so they stay bit-identical by
// construction.
double CounterfactualMechanism::utility_from_rebid(
    const dlt::CounterfactualSolver::Rebid& r, double actual_rate) const {
  const std::size_t index = r.index;
  PaymentInputs in;
  in.predecessor_bid = solver_.w(index - 1);
  in.link_z = solver_.z(index);
  in.alpha_hat_pred = r.alpha_hat_pred;
  in.alpha = r.alpha;
  in.computed = r.alpha;
  in.actual_rate = actual_rate;
  in.w_hat = config_.verify_actual_rates
                 ? w_hat(/*terminal=*/index + 1 == solver_.size(), r.bid,
                         actual_rate, r.alpha_hat, r.equivalent_w)
                 : r.equivalent_w;  // ablation: trust the bids blindly
  return evaluate_payment(in, config_).utility;
}

double CounterfactualMechanism::utility(std::size_t index, double bid,
                                        double actual_rate) {
  const std::size_t n = solver_.size();
  DLS_REQUIRE(index >= 1 && index < n, "index must name a strategic worker");
  DLS_REQUIRE(actual_rate > 0.0, "actual rate must be positive");
  return utility_from_rebid(solver_.rebid(index, bid), actual_rate);
}

void CounterfactualMechanism::utility_curve(std::size_t index,
                                            std::span<const double> bids,
                                            std::span<double> utilities) {
  const std::size_t n = solver_.size();
  DLS_REQUIRE(index >= 1 && index < n, "index must name a strategic worker");
  DLS_REQUIRE(bids.size() == utilities.size(),
              "utility_curve output size mismatch");
  const double actual_rate = actual_[index];
  DLS_REQUIRE(actual_rate > 0.0, "actual rate must be positive");
  rebid_scratch_.resize(bids.size());
  solver_.rebid_batch(index, bids, rebid_scratch_);
  for (std::size_t k = 0; k < bids.size(); ++k) {
    utilities[k] = utility_from_rebid(rebid_scratch_[k], actual_rate);
  }
}

double cheating_profit_bound(const net::LinearNetwork& bid_network) {
  double bound = 0.0;
  for (std::size_t j = 1; j < bid_network.size(); ++j) {
    bound += bid_network.w(j) + bid_network.w(j - 1);
  }
  return bound;
}

}  // namespace dls::core
