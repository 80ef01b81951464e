// Machine-checked statements of the paper's solver guarantees.
//
// check_linear_solution audits a LinearSolution against every closed
// form Sect. 2 proves about Algorithm 1's output:
//   * the local/global fraction bookkeeping of steps 7-10
//     (D_0 = 1, D_{i+1} = (1 - α̂_i) D_i, α_i = α̂_i D_i, Σα_i = 1);
//   * the collapse equations (2.4)/(2.7) at every reduction step,
//     including w̄_i = α̂_i w_i and w̄_i < z_{i+1} + w̄_{i+1};
//   * Theorem 2.1: every participating processor finishes at the same
//     instant, and that instant is the reported makespan w̄_0;
//   * the w-ordering monotonicity that follows from equal finish times
//     on a chain: the compute-time profile α_i w_i is non-increasing
//     from the root outward (so a processor no slower than its
//     successor always receives at least as much load).
//
// check_counterfactual_identity audits CounterfactualSolver's headline
// claim — rebidding a processor's *own base rate* reproduces the base
// solution bit-for-bit (exact ==, not approximate), for every index.
//
// The checkers throw check::ContractViolation on the first violated
// identity and are deliberately independent re-derivations: they
// recompute each quantity from the network rather than trusting the
// producer's intermediate state.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "common/tolerance.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace dls::check {

/// Default relative tolerance for solution audits. Slightly looser than
/// common::kDefaultRelTol: the finish-time recursion compounds one
/// rounding per hop, so 64-processor chains with 18-decade w/z spreads
/// legitimately drift a few ulps past 1e-9's headroom.
inline constexpr double kSolverAuditTol = 1e-7;

/// Throws ContractViolation unless `sol` is a valid Algorithm 1 output
/// for `network` (see file comment for the audited identities).
inline void check_linear_solution(const net::LinearNetwork& network,
                                  const dlt::LinearSolution& sol,
                                  double tol = kSolverAuditTol) {
  const std::size_t n = network.size();
  const auto at = [](const char* name, std::size_t i) {
    return std::string(name) + " at index " + std::to_string(i);
  };
  DLS_CHECK(sol.alpha.size() == n && sol.alpha_hat.size() == n &&
                sol.equivalent_w.size() == n && sol.received.size() == n,
            "solution arrays must match the network size");

  // Terminal collapse seed: α̂_m = 1, w̄_m = w_m.
  DLS_CHECK(common::approx_equal(sol.alpha_hat[n - 1], 1.0, tol),
            "terminal local fraction must be 1");
  DLS_CHECK(common::approx_equal(sol.equivalent_w[n - 1], network.w(n - 1),
                                 tol),
            "terminal equivalent time must be w_m");

  // Backward pass: eqs. (2.4)/(2.7) at every step.
  for (std::size_t i = 0; i < n; ++i) {
    DLS_CHECK(sol.alpha_hat[i] > 0.0 && sol.alpha_hat[i] <= 1.0,
              at("local fraction out of (0, 1]", i));
    DLS_CHECK(common::approx_equal(sol.equivalent_w[i],
                                   sol.alpha_hat[i] * network.w(i), tol),
              at("equivalent time must equal alpha_hat * w", i));
    if (i + 1 == n) continue;
    const double expect = dlt::pair_alpha_hat(network.w(i), network.z(i + 1),
                                              sol.equivalent_w[i + 1]);
    DLS_CHECK(common::approx_equal(sol.alpha_hat[i], expect, tol),
              at("collapse equation (2.7) violated", i));
    // Collapsing always beats shipping everything onward.
    DLS_CHECK(common::approx_le(sol.equivalent_w[i],
                                network.z(i + 1) + sol.equivalent_w[i + 1],
                                tol),
              at("equivalent time must improve on the bare tail", i));
  }

  // Forward pass: the D_i / α_i bookkeeping and Σα = 1.
  DLS_CHECK(sol.received[0] == 1.0, "the root receives the full unit load");
  double alpha_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    DLS_CHECK(sol.alpha[i] >= 0.0, at("negative load fraction", i));
    DLS_CHECK(common::approx_equal(sol.alpha[i],
                                   sol.received[i] * sol.alpha_hat[i], tol),
              at("alpha must equal alpha_hat * received", i));
    if (i + 1 < n) {
      DLS_CHECK(
          common::approx_equal(sol.received[i + 1],
                               sol.received[i] * (1.0 - sol.alpha_hat[i]),
                               tol),
          at("received-load recursion violated", i + 1));
    }
    alpha_sum += sol.alpha[i];
  }
  DLS_CHECK(common::approx_equal(alpha_sum, 1.0, tol),
            "load fractions must sum to 1");
  DLS_CHECK(common::approx_equal(sol.makespan, sol.equivalent_w[0], tol),
            "makespan must be the root equivalent time w̄_0");

  // Theorem 2.1: equal finish times among participants, equal to the
  // makespan; and the monotone compute-time profile it implies.
  DLS_CHECK(dlt::finish_time_spread(network, sol.alpha) <= tol,
            "participating processors must finish simultaneously");
  const std::vector<double> finish = dlt::finish_times(network, sol.alpha);
  double prev_work = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sol.alpha[i] <= 0.0) continue;
    DLS_CHECK(common::approx_equal(finish[i], sol.makespan, tol),
              at("participant finish time must equal the makespan", i));
    const double work = sol.alpha[i] * network.w(i);
    DLS_CHECK(prev_work < 0.0 || common::approx_ge(prev_work, work, tol),
              at("compute-time profile must be non-increasing", i));
    prev_work = work;
  }

  // Reduction trace, when the producer recorded one.
  if (!sol.steps.empty()) {
    DLS_CHECK(sol.steps.size() == n - 1,
              "reduction trace must hold one step per collapsed processor");
    for (std::size_t k = 0; k < sol.steps.size(); ++k) {
      const dlt::ReductionStep& step = sol.steps[k];
      const std::size_t i = n - 2 - k;  // far end first
      DLS_CHECK(step.index == i, at("reduction trace out of order", k));
      DLS_CHECK(step.alpha_hat == sol.alpha_hat[i] &&
                    step.equivalent_w == sol.equivalent_w[i] &&
                    step.tail_w == sol.equivalent_w[i + 1] &&
                    step.link_z == network.z(i + 1),
                at("reduction trace disagrees with the solution", k));
    }
  }
}

/// Replays the full Algorithm 1 recurrence for ONE lane of a batched
/// SoA solve and compares every stored quantity with exact == — the
/// batch engine's contract is bit-identity with the scalar solver, so
/// a miscompiled or misindexed vector lane surfaces here as a
/// ContractViolation instead of a silently wrong answer.
///
/// Pointers are pre-offset to the lane. `w` advances `w_stride` doubles
/// per chain row and `z` advances `z_stride` (the batch engine keeps
/// instance data lane-major, stride 1, and solution state
/// lane-interleaved, stride = number of lanes). `z` may be null when
/// n == 1.
inline void check_batch_lane(const double* w, std::size_t w_stride,
                             const double* z, std::size_t z_stride,
                             const double* alpha, const double* alpha_hat,
                             const double* equivalent_w,
                             const double* received, double makespan_value,
                             std::size_t n, std::size_t stride,
                             std::size_t lane) {
  const auto at = [lane](const char* name, std::size_t i) {
    return std::string(name) + " at lane " + std::to_string(lane) +
           ", index " + std::to_string(i);
  };
  // Backward pass replay: exact scalar arithmetic, compared bit-for-bit.
  double eqw = w[(n - 1) * w_stride];
  DLS_CHECK(alpha_hat[(n - 1) * stride] == 1.0,
            at("batch lane terminal fraction must be exactly 1", n - 1));
  DLS_CHECK(equivalent_w[(n - 1) * stride] == eqw,
            at("batch lane terminal equivalent time must be w_m", n - 1));
  for (std::size_t i = n - 1; i-- > 0;) {
    const double ah =
        dlt::pair_alpha_hat(w[i * w_stride], z[i * z_stride], eqw);
    eqw = ah * w[i * w_stride];
    DLS_CHECK(alpha_hat[i * stride] == ah,
              at("batch lane diverges from scalar alpha_hat", i));
    DLS_CHECK(equivalent_w[i * stride] == eqw,
              at("batch lane diverges from scalar equivalent_w", i));
  }
  DLS_CHECK(makespan_value == eqw,
            "batch lane " + std::to_string(lane) +
                " makespan diverges from the scalar reduction");
  // Forward pass replay.
  double remaining = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ah = alpha_hat[i * stride];
    DLS_CHECK(received[i * stride] == remaining,
              at("batch lane diverges from scalar received", i));
    DLS_CHECK(alpha[i * stride] == remaining * ah,
              at("batch lane diverges from scalar alpha", i));
    remaining *= (1.0 - ah);
  }
}

/// Throws ContractViolation unless rebidding every processor's own base
/// rate reproduces the base solution exactly (the incremental solver's
/// bit-identity claim). O(n^2); meant for DCHECK-tier wiring and tests.
inline void check_counterfactual_identity(dlt::CounterfactualSolver& solver) {
  const dlt::LinearSolution& base = solver.base();
  for (std::size_t i = 0; i < solver.size(); ++i) {
    const dlt::CounterfactualSolver::Rebid r = solver.rebid(i, solver.w(i));
    const double pred = i > 0 ? base.alpha_hat[i - 1] : 0.0;
    DLS_CHECK(r.alpha == base.alpha[i] && r.alpha_hat == base.alpha_hat[i] &&
                  r.equivalent_w == base.equivalent_w[i] &&
                  r.alpha_hat_pred == pred && r.makespan == base.makespan,
              "identity rebid of P" + std::to_string(i) +
                  " must reproduce the base solution bit-for-bit");
  }
}

}  // namespace dls::check
