// Self-tests of the serve-path benchmark: input determinism, the Zipf
// sampler, the percentile and ladder helpers, the oracle's response
// fingerprints, and a seconds-long smoke run of every workload.
//
//   cmake --build .bench_build --target servebench_tests
//   .bench_build/servebench_tests
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b, double tolerance) { return std::fabs(a - b) <= tolerance; }

void test_digest() {
  for (const std::string& name : sb::workload_names()) {
    const sb::WorkloadSpec& spec = *sb::find_workload(name);
    const std::uint64_t a = sb::make_inputs(spec, 7, 4096).digest;
    const std::uint64_t b = sb::make_inputs(spec, 7, 4096).digest;
    const std::uint64_t c = sb::make_inputs(spec, 8, 4096).digest;
    check(a == b, name + ": same seed, same input digest");
    check(a != c, name + ": different seed, different input digest");
  }
}

void test_zipf() {
  const double s = 1.1;
  const std::size_t n = 20000;
  const sb::ZipfSampler zipf(n, s);
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) total += std::pow(static_cast<double>(k), -s);
  double head = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) head += std::pow(static_cast<double>(k), -s);
  const double analytic = head / total;
  sb::Rng rng(3);
  const int draws = 200000;
  int in_head = 0;
  for (int i = 0; i < draws; ++i) in_head += zipf(rng) < 100 ? 1 : 0;
  const double measured = static_cast<double>(in_head) / draws;
  // Five standard errors of a binomial share.
  const double tolerance = 5.0 * std::sqrt(analytic * (1.0 - analytic) / draws);
  check(near(measured, analytic, tolerance),
        "zipf: sampled top-100 share " + std::to_string(measured) + " within " +
            std::to_string(tolerance) + " of " + std::to_string(analytic));
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(sb::percentile(v, 0.5), 50.5, 1e-12), "percentile: p50 of 1..100 is 50.5");
  check(near(sb::percentile(v, 0.99), 99.01, 1e-9), "percentile: p99 of 1..100 is 99.01");
  check(near(sb::median({3.0, 1.0, 2.0}), 2.0, 0.0), "median of 3 values");
  std::vector<double> empty;
  check(sb::percentile(empty, 0.5) == 0.0, "percentile of nothing is 0");

  // Four windows of 1000 samples; one window is a stall. The windowed
  // p99 is the median over windows, so the stall does not move it.
  std::vector<double> values;
  std::vector<double> at;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      values.push_back(w == 2 ? 1e6 : static_cast<double>(i));
      at.push_back(w + (i - 0.5) / 1000.0);
    }
  }
  std::vector<double> clean(values.begin(), values.begin() + 1000);
  const double expected = sb::percentile(clean, 0.99);
  check(near(sb::windowed_percentile(values, at, {}, 4.0, 0.99, 1000), expected, 1e-9),
        "windowed p99 ignores one stalled window");
  // Misses count as infinitely slow: half the requests missing in every
  // window puts the p99 at infinity.
  std::vector<double> misses(at.begin(), at.end());
  check(std::isinf(sb::windowed_percentile(values, at, misses, 4.0, 0.99, 1000)),
        "windowed p99 counts misses as infinitely slow");
  check(near(sb::windowed_miss_share(values.size(), at, misses, 4.0, 1000), 0.5, 1e-12),
        "windowed miss share");
}

void test_ladder() {
  const auto up_to = [](long last) {
    return [last](std::size_t rung) {
      return static_cast<long>(rung) <= last ? sb::StepVerdict::kPass : sb::StepVerdict::kFail;
    };
  };
  check(sb::ladder_search(20, up_to(7)) == 7, "ladder: highest passing rung found");
  check(sb::ladder_search(20, up_to(-1)) == -1, "ladder: nothing passes");
  check(sb::ladder_search(20, up_to(19)) == 19, "ladder: everything passes");
  int calls = 0;
  const int top = sb::ladder_search(20, [&](std::size_t rung) {
    ++calls;
    if (calls == 1) return sb::StepVerdict::kInvalid;  // measured again
    return rung <= 12 ? sb::StepVerdict::kPass : sb::StepVerdict::kFail;
  });
  check(top == 12, "ladder: an invalid step is measured again");

  sb::StepReport step;
  step.rate_rps = 1000.0;
  step.p99_ms = 5.0;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kPass, "step: within limits passes");
  step.p99_ms = 11.0;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kFail, "step: p99 over the limit fails");
  step.p99_ms = 5.0;
  step.miss_share = 0.02;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kFail, "step: 2% misses fails");
  step.miss_share = 0.0;
  step.gen_lag_p99_us = 2000.0;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kInvalid,
        "step: a late generator makes the step invalid");
  step.gen_lag_p99_us = 0.0;
  step.backlog[0] = 10;
  step.backlog[1] = 100;
  step.backlog[2] = 200;
  step.backlog[3] = 300;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kFail, "step: a growing backlog fails");
  step.backlog[1] = 10;
  step.backlog[2] = 400;  // a stall caught at one sample point
  step.backlog[3] = 10;
  check(sb::judge_step(step, 10.0, 1000.0) == sb::StepVerdict::kPass,
        "step: a one-sample backlog spike is not growth");
}

void test_oracle() {
  dls::serve::ScheduleRequest request;
  request.w = {1.0, 2.0, 1.5};
  request.z = {0.2, 0.3};
  request.options.want_payments = true;
  const dls::core::MechanismConfig mechanism;
  dls::serve::ScheduleResponse answer = sb::expected_response(request, mechanism);
  const std::uint64_t expect = sb::fingerprint(answer);
  answer.request_id = 42;
  answer.cache_hit = true;
  dls::codec::Bytes payload = dls::serve::encode_schedule_response(answer);
  const sb::ParsedResponse parsed =
      sb::parse_response(dls::serve::FrameType::kScheduleResponse, payload);
  check(parsed.id == 42 && parsed.status == dls::serve::ScheduleStatus::kOk,
        "oracle: id and status parsed from a response");
  check(parsed.fingerprint == expect, "oracle: id and cache-hit flag do not change the fingerprint");
  answer.alpha[1] = std::nextafter(answer.alpha[1], 1.0);
  payload = dls::serve::encode_schedule_response(answer);
  check(sb::parse_response(dls::serve::FrameType::kScheduleResponse, payload).fingerprint != expect,
        "oracle: a one-ulp change in alpha is caught");

  dls::codec::Bytes frame = sb::encode_request_frame(request);
  sb::stamp_request_id(frame, false, 77);
  const dls::serve::Frame decoded = dls::serve::decode_frame(frame);  // checks the checksum
  check(dls::serve::decode_schedule_request(decoded.payload).request_id == 77,
        "stamped request id survives the frame checksum");
}

void test_smoke() {
  for (const std::string& name : sb::workload_names()) {
    sb::RunOptions options;
    options.workload = name;
    options.seed = 5;
    options.seconds = 2.0;
    check(sb::run(options) == 0, name + ": smoke run passes the oracle");
  }
  sb::RunOptions traced;
  traced.workload = "fed_warm_zipf";
  traced.seconds = 2.0;
  traced.trace = true;
  check(sb::run(traced) == 0, "traced smoke run passes the oracle");
}

}  // namespace

int main() {
  test_digest();
  test_zipf();
  test_percentiles();
  test_ladder();
  test_oracle();
  test_smoke();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
