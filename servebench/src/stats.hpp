// Statistics and input-generation helpers of the serve-path benchmark:
// its own seeded RNG (so generated inputs never depend on the library's
// generator), a Zipf sampler, a byte hash used for input digests and
// response fingerprints, percentiles, and the open-loop ladder search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace sb {

/// xoshiro256** seeded through splitmix64. Same seed, same stream, on
/// every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;
  std::uint64_t next() noexcept;
  /// Uniform double in [0, 1).
  double uniform01() noexcept;
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept;
  /// Exponential with mean 1/rate.
  double exponential(double rate) noexcept;
  bool coin() noexcept { return (next() >> 63) != 0; }

  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[between(0, i - 1)]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// 64-bit hash of a byte string (four interleaved FNV-style word lanes,
/// then a bytewise tail). Not cryptographic; used for the input digest
/// and for response fingerprints compared against the oracle.
std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed = 0) noexcept;

/// Running digest over a sequence of byte strings and integers.
class Digest {
 public:
  void add(std::span<const std::uint8_t> data) noexcept;
  void add(std::uint64_t value) noexcept;
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

/// Zipf(s) over ranks 1..n by inverse transform on the exact CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  /// A 0-based rank: 0 is the most popular key.
  std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolation percentile (q in [0, 1]) of `values`, which is
/// reordered. 0 for an empty sample.
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// A phase's percentile as the median over time windows: samples
/// (`values`, taken at `at_s`) and misses (at `miss_at_s`, counted as
/// infinitely slow) are split into equal windows of [0, span_s), as many
/// as keep at least `per_window` samples each (1 to 8), and the q-th
/// percentile of each window is taken. One stalled window of a shared
/// machine then moves the result by at most one rank.
double windowed_percentile(const std::vector<double>& values,
                           const std::vector<double>& at_s,
                           const std::vector<double>& miss_at_s, double span_s,
                           double q, std::size_t per_window);

/// Median over the same windows of each window's miss share.
double windowed_miss_share(std::size_t ok, const std::vector<double>& ok_at_s,
                           const std::vector<double>& miss_at_s, double span_s,
                           std::size_t per_window);

/// Verdict on one open-loop ladder step.
enum class StepVerdict { kPass, kFail, kInvalid };

struct StepReport {
  double rate_rps = 0.0;        ///< offered rate of the rung
  double p99_ms = 0.0;          ///< latency from due time (windowed)
  double miss_share = 0.0;      ///< refused + failed + lost (windowed)
  /// In flight at 25%, 50%, 75% and 100% of the step.
  double backlog[4] = {0.0, 0.0, 0.0, 0.0};
  double gen_lag_p99_us = 0.0;  ///< send time minus due time
  double ok_rps = 0.0;          ///< kOk answers over the sending window
};

/// A step passes when p99 is within `limit_ms`, at most 1% of requests
/// missed, and the backlog did not grow: it grows when both the first
/// and the second half-step (25%->75%, 50%->100%) added more than 50 ms
/// worth of arrivals, so one stall at a sample point does not count.
/// A step whose generator ran later than `lag_limit_us` (p99) is
/// invalid: it says nothing about the program.
StepVerdict judge_step(const StepReport& step, double limit_ms,
                       double lag_limit_us);

/// Searches a rising ladder of `rungs` rates by bisection, assuming a
/// rung passes whenever a faster one does. `run(i)` measures rung i.
/// A rung that fails or is invalid is measured once more, and fails
/// only if that retry does not pass either: a stall of the shared
/// machine during one step must not cut the search short.
/// Returns the highest passing rung, or -1 when none passed.
int ladder_search(std::size_t rungs,
                  const std::function<StepVerdict(std::size_t)>& run);

}  // namespace sb
