// The DLS-LBL mechanism (Sect. 4): allocation from bids + payments from
// verified actuals.
//
// This module is the *centralised assessment* of the mechanism — given
// the bids, the metered actual rates and the actually-computed loads, it
// produces what every processor is owed and its resulting utility. The
// distributed four-phase realisation over signed messages (including
// deviation detection and fines) lives in src/protocol and calls into
// this module for the arithmetic.
#pragma once

#include <span>
#include <vector>

#include "core/payment_rules.hpp"
#include "dlt/batch.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace dls::core {

/// Everything the mechanism concludes about processor P_j.
struct Assessment {
  std::size_t index = 0;
  double bid_rate = 0.0;       ///< w_j (the root's true rate for j=0)
  double actual_rate = 0.0;    ///< w̃_j
  double alpha = 0.0;          ///< α_j assigned from the bids
  double alpha_hat = 0.0;      ///< α̂_j from the bids
  double equivalent_bid = 0.0; ///< w̄_j from the bids
  double computed = 0.0;       ///< α̃_j
  double w_hat = 0.0;          ///< ŵ_j (4.10/4.11); root: its own rate
  PaymentBreakdown money;      ///< V/C/E/B/Q/U
};

struct DlsLblResult {
  dlt::LinearSolution solution;  ///< Algorithm 1 on the bid network
  std::vector<Assessment> processors;  ///< index 0..m; P_0 is the root
  double total_payment = 0.0;    ///< Σ_{j>=1} Q_j
  double mechanism_cost = 0.0;   ///< total_payment + root reimbursement
};

/// Runs the mechanism arithmetic.
///  * `bid_network` — link times are ground truth; w(0) is the obedient
///    root's rate; w(j) for j>=1 are the strategic bids.
///  * `actual_rates` — w̃_j for all n processors (w̃_0 = w(0)).
///  * `computed_loads` — α̃_j for all n processors; pass the solution's
///    α to model compliant execution.
/// `solution_found` feeds the Theorem 5.2 solution bonus when enabled.
DlsLblResult assess_dls_lbl(const net::LinearNetwork& bid_network,
                            std::span<const double> actual_rates,
                            std::span<const double> computed_loads,
                            const MechanismConfig& config,
                            bool solution_found = true);

/// Compliant-execution convenience: everyone computes their assignment at
/// their stated actual rate (α̃ = α from bids).
DlsLblResult assess_compliant(const net::LinearNetwork& bid_network,
                              std::span<const double> actual_rates,
                              const MechanismConfig& config);

/// Caller-owned reusable buffers for the assessment hot path: Monte-Carlo
/// loops re-use one workspace and pay zero heap allocations per call once
/// the buffers have warmed to the chain size. The solver skips building
/// the reduction trace (`steps`) in this flavour.
struct AssessWorkspace {
  DlsLblResult result;
};

/// Workspace flavours; both return ws.result.
const DlsLblResult& assess_dls_lbl(const net::LinearNetwork& bid_network,
                                   std::span<const double> actual_rates,
                                   std::span<const double> computed_loads,
                                   const MechanismConfig& config,
                                   bool solution_found, AssessWorkspace& ws);

const DlsLblResult& assess_compliant(const net::LinearNetwork& bid_network,
                                     std::span<const double> actual_rates,
                                     const MechanismConfig& config,
                                     AssessWorkspace& ws);

/// Compliant assessment taking the allocation from lane `lane` of an
/// already-solved BatchLinearSolver instead of re-running Algorithm 1.
/// The lane must hold the solve of `bid_network` (the caller batched it
/// there); payments are bit-identical to assess_compliant on the same
/// network because the batch engine's lanes are bit-identical to the
/// scalar solver. This is the serve dispatcher's payment path for
/// batched cache misses.
const DlsLblResult& assess_compliant_from_batch(
    const net::LinearNetwork& bid_network, const dlt::BatchLinearSolver& batch,
    std::size_t lane, std::span<const double> actual_rates,
    const MechanismConfig& config, AssessWorkspace& ws);

/// Compliant assessment on an allocation the caller already holds:
/// `solution` must be Algorithm 1 on `bid_network` (a fresh or cached
/// solve_linear_boundary_into result). Payments are bit-identical to
/// assess_compliant on the same network, without running Algorithm 1 a
/// second time; the result's solution is a copy of `solution`. This is
/// the serve dispatcher's payment path for per-request solves and cache
/// hits.
DlsLblResult assess_compliant_from_solution(
    const net::LinearNetwork& bid_network, const dlt::LinearSolution& solution,
    std::span<const double> actual_rates, const MechanismConfig& config);

/// Counterfactual utility for strategyproofness sweeps: in the network of
/// *true* rates `true_network`, processor `index` (>= 1) bids `bid` and
/// executes at `actual_rate` (>= its true rate) while everyone else is
/// truthful and compliant. Returns the utility U_index.
double utility_under_bid(const net::LinearNetwork& true_network,
                         std::size_t index, double bid, double actual_rate,
                         const MechanismConfig& config);

/// Batched counterfactual utilities for THM5.3-style sweeps.
///
/// Fixes the rest of the population (the base network's bids and the
/// metered actual rates) once, then answers "what is U_j when P_j bids w
/// and executes at w̃" via dlt::CounterfactualSolver: only the reduction
/// prefix 0..j is recomputed and only P_j's payment is evaluated —
/// O(j) per query with zero heap allocation, versus two full Algorithm 1
/// runs plus an n-processor assessment per point through
/// utility_under_bid. A processor's utility depends on the bid solution
/// and its own metered rate only, so the answers are bit-identical to
/// the full assessment. Holds mutable scratch — one instance per thread.
class CounterfactualMechanism {
 public:
  /// `actual_rates` are the metered rates of the base population
  /// (actual_rates[0] is the obedient root's, used only for sizing).
  CounterfactualMechanism(const net::LinearNetwork& bid_base,
                          std::span<const double> actual_rates,
                          const MechanismConfig& config);

  /// U_index when bidding `bid` and executing compliantly at
  /// `actual_rate`; everyone else per the base profile. index >= 1.
  double utility(std::size_t index, double bid, double actual_rate);

  /// Batched case (i) of Lemma 5.3: vary the bid, execute at the base
  /// actual rate. Writes utilities[k] = U_index(bids[k]), bit-identical
  /// to a utility() loop but solved across bid lanes in one SoA pass
  /// (CounterfactualSolver::rebid_batch).
  void utility_curve(std::size_t index, std::span<const double> bids,
                     std::span<double> utilities);

 private:
  double utility_from_rebid(const dlt::CounterfactualSolver::Rebid& r,
                            double actual_rate) const;

  dlt::CounterfactualSolver solver_;
  std::vector<double> actual_;
  MechanismConfig config_;
  std::vector<dlt::CounterfactualSolver::Rebid> rebid_scratch_;
};

/// Upper bound on the profit any single deviation can extract from this
/// instance — used to size the fine F ("larger than any potential
/// profits attainable by cheating"). The crude but safe bound is the
/// total money the mechanism could ever hand out on a unit load:
/// Σ_j (w_j + predecessor bid).
double cheating_profit_bound(const net::LinearNetwork& bid_network);

}  // namespace dls::core
