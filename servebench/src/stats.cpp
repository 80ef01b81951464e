#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sb {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

constexpr std::uint64_t kPrime = 0x100000001B3ull;

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  for (std::uint64_t& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // the full 64-bit range
  // The modulo bias (< span / 2^64) is far below any statistic here.
  return lo + next() % span;
}

double Rng::exponential(double rate) noexcept {
  return -std::log1p(-uniform01()) / rate;
}

std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) noexcept {
  std::uint64_t lane[4] = {0xCBF29CE484222325ull ^ seed,
                           0x84222325CBF29CE4ull ^ seed,
                           0x9E3779B97F4A7C15ull ^ seed,
                           0xC2B2AE3D27D4EB4Full ^ seed};
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 32) {
    for (int i = 0; i < 4; ++i) {
      lane[i] = (lane[i] ^ load_le64(p + 8 * i)) * kPrime;
    }
    p += 32;
    n -= 32;
  }
  std::uint64_t h = lane[0] ^ rotl(lane[1], 17) ^ rotl(lane[2], 31) ^
                    rotl(lane[3], 47) ^ data.size();
  for (; n > 0; --n, ++p) h = (h ^ *p) * kPrime;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

void Digest::add(std::span<const std::uint8_t> data) noexcept {
  state_ = hash_bytes(data, state_);
}

void Digest::add(std::uint64_t value) noexcept {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  add(std::span<const std::uint8_t>(bytes, 8));
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler needs n >= 1");
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.uniform01();
  return static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (infinite misses included) need no interpolation.
  if (values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

namespace {

std::size_t window_count(std::size_t samples, std::size_t per_window) {
  return std::clamp<std::size_t>(samples / std::max<std::size_t>(per_window, 1), 1, 8);
}

std::size_t window_of(double at_s, double span_s, std::size_t windows) {
  const double w = at_s / span_s * static_cast<double>(windows);
  if (!(w > 0.0)) return 0;
  return std::min(static_cast<std::size_t>(w), windows - 1);
}

}  // namespace

double windowed_percentile(const std::vector<double>& values,
                           const std::vector<double>& at_s,
                           const std::vector<double>& miss_at_s, double span_s,
                           double q, std::size_t per_window) {
  const std::size_t windows =
      window_count(values.size() + miss_at_s.size(), per_window);
  std::vector<std::vector<double>> split(windows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    split[window_of(at_s[i], span_s, windows)].push_back(values[i]);
  }
  for (const double at : miss_at_s) {
    split[window_of(at, span_s, windows)].push_back(
        std::numeric_limits<double>::infinity());
  }
  std::vector<double> per;
  for (std::vector<double>& window : split) {
    if (!window.empty()) per.push_back(percentile(window, q));
  }
  return median(per);
}

double windowed_miss_share(std::size_t ok, const std::vector<double>& ok_at_s,
                           const std::vector<double>& miss_at_s, double span_s,
                           std::size_t per_window) {
  const std::size_t windows = window_count(ok + miss_at_s.size(), per_window);
  std::vector<double> oks(windows, 0.0);
  std::vector<double> misses(windows, 0.0);
  for (const double at : ok_at_s) oks[window_of(at, span_s, windows)] += 1.0;
  for (const double at : miss_at_s) misses[window_of(at, span_s, windows)] += 1.0;
  std::vector<double> shares;
  for (std::size_t w = 0; w < windows; ++w) {
    const double sent = oks[w] + misses[w];
    if (sent > 0.0) shares.push_back(misses[w] / sent);
  }
  return median(shares);
}

StepVerdict judge_step(const StepReport& step, double limit_ms,
                       double lag_limit_us) {
  if (step.gen_lag_p99_us > lag_limit_us) return StepVerdict::kInvalid;
  const double threshold = std::max(32.0, 0.05 * step.rate_rps);
  const bool growing = step.backlog[2] - step.backlog[0] > threshold &&
                       step.backlog[3] - step.backlog[1] > threshold;
  const bool pass =
      step.p99_ms <= limit_ms && step.miss_share <= 0.01 && !growing;
  return pass ? StepVerdict::kPass : StepVerdict::kFail;
}

int ladder_search(std::size_t rungs,
                  const std::function<StepVerdict(std::size_t)>& run) {
  // Invariant: every rung <= lo passed (or lo == -1), every rung >= hi
  // failed (or hi == rungs).
  long lo = -1;
  long hi = static_cast<long>(rungs);
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    StepVerdict verdict = run(static_cast<std::size_t>(mid));
    if (verdict != StepVerdict::kPass) {
      verdict = run(static_cast<std::size_t>(mid));
    }
    if (verdict == StepVerdict::kPass) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo);
}

}  // namespace sb
