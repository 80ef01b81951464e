// Lane kernels for the batched SoA solver (internal header).
//
// Every kernel applies ONE step of a per-instance recurrence across K
// independent lanes (instances) stored contiguously, so the sequential
// dependence stays along the chain while the lane dimension is a flat
// loop. Each loop performs the exact same IEEE-754 operations in the
// exact same association order as the scalar expressions in linear.cpp /
// counterfactual.cpp, so every lane is bit-identical to a scalar solve —
// the property the batch tests and the src/check auditors assert with ==.
//
// The pointer parameters are __restrict: every call site passes distinct
// buffers, and without the promise GCC vectorizes the loops only behind
// runtime alias checks, if at all. At -O3 it vectorizes all of them.
// add/sub/mul/div are correctly rounded elementwise, so vector width
// cannot change a result.
//
// Bit-identity discipline (do not "simplify" these expressions):
//   * pair_alpha_hat computes num = tail + z and den = (w + tail) + z —
//     the denominator associates LEFT. The loops mirror that exactly.
//   * No fused multiply-add: none of the expressions below form an
//     a*b+c tree, and the build pins -ffp-contract=off.
#pragma once

#include <cstddef>

namespace dls::dlt::detail {

// ---------------------------------------------------------------------
// Collapse step, per-lane rates (BatchLinearSolver backward pass).
// Mirror of pair_alpha_hat + eq. (2.4) in solve_linear_boundary_into:
//   ah   = (tail + z) / ((w + tail) + z)
//   eqw  = ah * w
//   tail = eqw

inline void reduce_lanes(const double* __restrict w,
                         const double* __restrict z, double* __restrict tail,
                         double* __restrict ah, double* __restrict eqw,
                         std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const double num = tail[k] + z[k];
    const double den = (w[k] + tail[k]) + z[k];
    const double a = num / den;
    const double e = a * w[k];
    ah[k] = a;
    eqw[k] = e;
    tail[k] = e;
  }
}

// ---------------------------------------------------------------------
// Collapse step, broadcast rates (CounterfactualSolver::rebid_batch
// prefix: every lane shares the chain's w_i and z_{i+1}, only the
// equivalent tail differs). Mirror of the rebid() loop body:
//   ah   = (tail + z) / ((w + tail) + z)
//   tail = ah * w

inline void reduce_lanes_bcast(double w, double z, double* __restrict tail,
                               double* __restrict ah, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const double num = tail[k] + z;
    const double den = (w + tail[k]) + z;
    const double a = num / den;
    ah[k] = a;
    tail[k] = a * w;
  }
}

// ---------------------------------------------------------------------
// Own-lane collapse for rebid_batch: the queried processor's OWN bid
// varies per lane while the suffix tail and link are fixed, so the
// recurrence reads
//   ah  = (tail + z) / ((bid + tail) + z)
//   eqw = ah * bid
// This is pair_alpha_hat with the numerator hoisted (tail and z are
// lane-invariant); the denominator association matches the scalar
// rebid() exactly. It lives here — not inlined at the call site — so
// the FP-determinism fence can verify there is exactly ONE spelling of
// every α̂ recurrence in the batch layer.

inline void collapse_own_lanes(const double* __restrict bids, double tail,
                               double z, double* __restrict ah,
                               double* __restrict eqw, std::size_t count) {
  const double num = tail + z;
  for (std::size_t k = 0; k < count; ++k) {
    const double a = num / ((bids[k] + tail) + z);
    ah[k] = a;
    eqw[k] = a * bids[k];  // eq. (2.4)
  }
}

// ---------------------------------------------------------------------
// Forward unroll step (steps 7-10 of Algorithm 1 across lanes). Mirror
// of the scalar loop body:
//   received  = remaining
//   alpha     = remaining * ah
//   remaining = remaining * (1 - ah)

inline void unroll_lanes(const double* __restrict ah,
                         double* __restrict remaining,
                         double* __restrict received,
                         double* __restrict alpha, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const double rem = remaining[k];
    received[k] = rem;
    alpha[k] = rem * ah[k];
    remaining[k] = rem * (1.0 - ah[k]);
  }
}

/// Lane-product step for rebid_batch's forward pass:
///   remaining *= (1 - ah)
/// Mirror of `remaining *= (1.0 - ah_scratch_[i])` in rebid().
inline void remaining_lanes(const double* __restrict ah,
                            double* __restrict remaining, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    remaining[k] = remaining[k] * (1.0 - ah[k]);
  }
}

}  // namespace dls::dlt::detail
