#include "runner.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "check/contracts.hpp"
#include "dlt/batch.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace sb {

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Records in the arena: the most requests one phase can trace.
constexpr std::size_t kArenaRecords = std::size_t{1} << 20;
/// Set-ups per untraced run; set-up time is their median.
constexpr std::size_t kSetups = 15;
/// Shares of --seconds that each phase measures for, summed over the
/// rounds. An untraced run measures closed-loop rounds only: 0.45 +
/// 0.45, plus at most a quarter of that again on a contended machine. A
/// traced run measures fewer rounds (0.1 + 0.1), at most 12 ladder steps
/// of 0.045 (a bisection over 33 rungs, failed steps measured twice;
/// usually about 9), the traced slice (0.2) and the layer replay (0.3).
constexpr double kUnloadedShare = 0.45;
constexpr double kSaturationShare = 0.45;
constexpr double kTracedUnloadedShare = 0.1;
constexpr double kTracedSaturationShare = 0.1;
constexpr double kStepShare = 0.045;
constexpr double kTracedShare = 0.2;
constexpr double kReplayShare = 0.3;
/// Interleaved unloaded/saturation rounds per untraced run, and per
/// traced run (there one before each ladder step while they last).
constexpr std::size_t kRounds = 24;
constexpr std::size_t kTracedRounds = 8;
/// The steal share up to which a round counts as measured on a quiet
/// machine. While the host steals, a run adds up to a quarter of its
/// rounds again.
constexpr double kQuietSteal = 0.02;

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  in >> one;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", one);
  return buffer;
}

/// Machine-wide CPU time (jiffies) and the part stolen by the host: a
/// run with a large steal share ran on a contended machine.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// A field of /proc/self/status in MiB (VmRSS, VmHWM).
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// Resets the process's RSS high-water mark to its current RSS.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// CPU time (µs) of the calling thread running a fixed kernel that
/// holds none of the program's code: sort a copy of 8192 seeded keys,
/// then a floating-point recurrence over them. On a virtual machine
/// whose host lends its cores to other guests, how fast a core runs
/// drifts by tens of percent over minutes; the probe tracks that drift,
/// and the program's figures are scaled by it (see kProbeRefUs). It is
/// timed in thread CPU time, so a program thread that keeps a CPU busy
/// between phases cannot slow it down.
double probe_cpu_us() {
  constexpr std::size_t kKeys = 8192;
  constexpr int kReps = 16;
  static const std::vector<std::uint64_t> keys = [] {
    std::vector<std::uint64_t> k(kKeys);
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (std::uint64_t& x : k) x = rng.next();
    return k;
  }();
  std::vector<std::uint64_t> work(kKeys);
  double acc = 0.0;
  const double t0 = thread_cpu_us();
  for (int rep = 0; rep < kReps; ++rep) {
    std::copy(keys.begin(), keys.end(), work.begin());
    std::sort(work.begin(), work.end());
    double carry = 1.0;
    for (const std::uint64_t x : work) {
      carry = carry * 0.999 + static_cast<double>(x >> 40) * 1e-9;
      acc += carry;
    }
  }
  const double took = (thread_cpu_us() - t0) / kReps;
  return acc > 0.0 ? took : took + 1e-9;  // keeps the loop observable
}

/// Probe time (µs) that figures are scaled to: a duration d becomes
/// d * kProbeRefUs / probe and a rate r becomes r * probe / kProbeRefUs,
/// with `probe` measured next to the figure. The reference is about what
/// the probe takes on a 4-vCPU Firecracker VM (GCC 12.2, Release build);
/// a program change moves the scaled figures, a faster or slower core
/// does not.
constexpr double kProbeRefUs = 600.0;

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

double p99(std::vector<double> values) { return percentile(values, 0.99); }

/// Generator lag (p99) beyond which a ladder step is invalid.
constexpr double kLagLimitUs = 5000.0;

/// Samples per percentile window: ten beyond the p99 of each.
constexpr std::size_t kPerWindow = 1000;

/// p99 latency (µs) of a phase as the median of its windows' p99s.
double windowed_p99(const PhaseResult& r) {
  return windowed_percentile(r.latency_us, r.ok_at_s, r.miss_at_s, r.wall_s, 0.99,
                             kPerWindow);
}

/// Pools `r` into `into`: tallies, latencies and wall time add up.
void absorb(PhaseResult& into, const PhaseResult& r) {
  into.tally.add(r.tally);
  into.wall_s += r.wall_s;
  into.latency_us.insert(into.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
  into.class_latency_us.resize(r.class_latency_us.size());
  for (std::size_t c = 0; c < r.class_latency_us.size(); ++c) {
    into.class_latency_us[c].insert(into.class_latency_us[c].end(),
                                    r.class_latency_us[c].begin(),
                                    r.class_latency_us[c].end());
  }
}

/// Everything a run checks and counts across its phases.
struct Ledger {
  Tally all;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Adds a phase; in a closed-loop phase every request must be
  /// answered kOk, in an open-loop step refusals are misses, not faults.
  void phase(const std::string& name, const PhaseResult& r, bool closed_loop) {
    all.add(r.tally);
    const Tally& t = r.tally;
    failed += t.mismatched + t.lost + t.error;
    if (closed_loop) failed += t.shed + t.expired + t.degraded;
    if (t.mismatched > 0) problems.push_back(name + ": " + std::to_string(t.mismatched) + " answers failed the oracle");
    if (t.lost > 0) problems.push_back(name + ": " + std::to_string(t.lost) + " requests lost");
    if (t.error > 0) problems.push_back(name + ": " + std::to_string(t.error) + " kError answers");
    if (closed_loop && t.refused() > 0) problems.push_back(name + ": " + std::to_string(t.refused()) + " refusals in a closed loop");
  }

  /// Server-side counters must agree with what the client saw.
  void reconcile(const std::string& name, const PhaseResult& r, const Counters& d,
                 bool federated) {
    const Tally& t = r.tally;
    if (t.lost > 0) return;  // unanswered requests leave counts open
    const std::uint64_t ok = t.ok + t.mismatched;
    bool agree = true;
    if (federated) {
      agree = d.router.received == t.sent && d.router.answered_ok == ok &&
              d.router.refused == t.refused();
    } else {
      agree = d.service.received == t.sent && d.service.ok == ok &&
              d.service.shed == t.shed && d.service.expired == t.expired &&
              d.service.errors == t.error && d.service.degraded == t.degraded;
    }
    if (!agree) {
      ++failed;
      problems.push_back(name + ": server counters disagree with the client tally (sent " +
                         std::to_string(t.sent) + ", ok " + std::to_string(ok) + ")");
    }
  }
};

void print_phase(const std::string& name, const PhaseResult& r) {
  const Tally& t = r.tally;
  std::printf("phase %-12s sent=%llu ok=%llu shed=%llu expired=%llu error=%llu degraded=%llu "
              "lost=%llu mismatched=%llu wall=%.3fs\n",
              name.c_str(), static_cast<unsigned long long>(t.sent),
              static_cast<unsigned long long>(t.ok), static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.expired), static_cast<unsigned long long>(t.error),
              static_cast<unsigned long long>(t.degraded), static_cast<unsigned long long>(t.lost),
              static_cast<unsigned long long>(t.mismatched), r.wall_s);
}

void print_classes(const std::string& name, const PhaseResult& r,
                   const std::vector<std::string>& classes) {
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<double> lat = r.class_latency_us[c];
    const double p50 = percentile(lat, 0.5);
    std::printf("class %-12s %-10s n=%zu p50_us=%.1f p99_us=%.1f\n", name.c_str(),
                classes[c].c_str(), lat.size(), p50, percentile(lat, 0.99));
  }
}

/// The system under test plus its open client connections.
struct Rig {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<dls::serve::Transport>> owned;
  std::vector<dls::serve::Transport*> conns;

  std::vector<dls::serve::Transport*> first(std::size_t n) const {
    return {conns.begin(), conns.begin() + static_cast<std::ptrdiff_t>(n)};
  }
  void close() {
    for (const auto& conn : owned) conn->close();
    stack.reset();
  }
};

/// Builds the stack, opens `connections` and runs the warm-up pass.
Rig set_up(const WorkloadSpec& spec, LoadGen& gen, std::size_t connections,
           Ledger& ledger) {
  Rig rig;
  rig.stack = std::make_unique<Stack>(spec);
  for (std::size_t i = 0; i < connections; ++i) {
    rig.owned.push_back(rig.stack->connect());
    rig.conns.push_back(rig.owned.back().get());
  }
  gen.rewind();
  const PhaseResult warm = gen.closed(rig.conns, spec.depth, 600.0, spec.warmup_requests);
  ledger.phase("warmup", warm, true);
  return rig;
}

struct Emitted {
  std::string name;
  std::string unit;
  double value;
};

void emit(bool correct, const Ledger& ledger, const std::vector<Emitted>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.all.sent);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::vector<Emitted> in_order(const MetricList& list, const std::map<std::string, double>& values) {
  std::vector<Emitted> out;
  for (const auto& [name, unit] : list) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::logic_error("metric " + name + " was not measured");
    out.push_back({name, unit, it->second});
  }
  return out;
}

}  // namespace

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"cpu_us_per_req", "us"},
      {"rss_mb", "MB"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      // Wall-clock end-to-end figures: host CPU steal moves them by
      // more than any bound between runs (see README.md), so they are
      // measured by every run and gated by none.
      {"rtt_p50_us", "us"},                  {"max_rps", "1/s"},
      {"rtt_p99_us", "us"},                  {"sat_p99_ms", "ms"},
      {"goodput_rps", "1/s"},
      {"frame.encode_req_us", "us"},         {"frame.decode_req_us", "us"},
      {"frame.encode_resp_us", "us"},        {"frame.decode_resp_us", "us"},
      {"frame.bytes_per_req", "bytes"},      {"pipe.rtt_us", "us"},
      {"shard.owners_us", "us"},             {"shard.max_share", "share"},
      {"cache.key_us", "us"},                {"cache.lookup_us", "us"},
      {"cache.live_hit_share", "share"},     {"cache.evictions_per_req", "count"},
      {"router.replay_share", "share"},      {"router.inline_share", "share"},
      {"router.forwards_per_req", "count"},  {"router.quorum_agreed_share", "share"},
      {"router.quorum_divergence", "count"}, {"service.admit_to_resp_p50_us", "us"},
      {"service.admit_to_resp_p99_us", "us"}, {"service.queue_depth_max", "count"},
      {"service.batch_size_mean", "count"},  {"service.batched_share", "share"},
      {"service.refused_share", "share"},    {"dlt.solve_us.m256", "us"},
      {"dlt.solve_us.m2048", "us"},          {"dlt.batch_lane_us.m2048", "us"},
      {"solver.batch.lanes_per_solve", "count"}, {"core.assess_us.m256", "us"},
      {"core.assess_us.m2048", "us"},        {"multiload.solve_us", "us"},
      {"multiload.assess_us", "us"},         {"multiload.installments_per_req", "count"},
      {"class.multi.sat_p99_ms", "ms"},      {"class.single.sat_p99_ms", "ms"},
      {"pool.dispatch_us", "us"},            {"closure.stage_sum_us", "us"},
      {"closure.residual_share", "share"},   {"trace.overhead_share", "share"},
  };
  return list;
}

int run(const RunOptions& options) {
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  // Generator budget: threads plus connections within nproc. Closed
  // loops use one thread per connection; the open loop one sender plus
  // one receiver per connection.
  const std::size_t cpus = nproc();
  const std::size_t closed_conns = std::max<std::size_t>(1, cpus / 2);
  const std::size_t open_conns = cpus >= 3 ? (cpus - 1) / 2 : 0;
  if (open_conns == 0 || 2 * closed_conns > cpus) {
    std::fprintf(stderr,
                 "servebench: %zu CPUs cannot hold the generator's threads plus "
                 "connections (needs at least 3)\n",
                 cpus);
    return 2;
  }
  const std::string load_start = load_average();
  const CpuTimes cpu_start = read_cpu_times();
  const double s = options.seconds;

  const Inputs inputs = make_inputs(*spec, options.seed);
  LoadGen gen(inputs, kArenaRecords);
  reset_peak_rss();
  const double rss_base = status_mb("VmRSS");

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"nproc\": %zu, \"closed_connections\": %zu, \"open_connections\": %zu, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"DLS_CHECK_LEVEL\": %d, "
              "\"DLS_OBS_LEVEL\": %d, \"batch_simd_available\": %s, \"loadavg_start\": %s, "
              "\"input_digest\": \"%016llx\", \"input_bytes\": %zu, \"pool\": %zu}\n",
              spec->name.c_str(), static_cast<unsigned long long>(options.seed), s,
              options.trace ? 1 : 0, cpus, closed_conns, open_conns, SERVEBENCH_BUILD_TYPE,
              __VERSION__, DLS_CHECK_LEVEL, DLS_OBS_LEVEL,
              dls::dlt::batch_simd_available() ? "true" : "false", load_start.c_str(),
              static_cast<unsigned long long>(inputs.digest), inputs.bytes, inputs.pool.size());
  std::fflush(stdout);

  Ledger ledger;
  std::map<std::string, double> values;
  std::uint64_t divergence = 0;
  // The measured stack is the first one built; the extra set-ups that
  // time set-up again come after it is torn down. Set-up time is the CPU
  // time the process spends in it, scaled by the probe measured around
  // it; the wall time is printed beside it.
  std::vector<double> setup_times;
  std::vector<double> setup_walls;
  const auto timed_set_up = [&] {
    const double probe0 = probe_cpu_us();
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    Rig built = set_up(*spec, gen, closed_conns, ledger);
    setup_walls.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const double cpu = process_cpu_s() - cpu0;
    setup_times.push_back(cpu * kProbeRefUs / (0.5 * (probe0 + probe_cpu_us())));
    return built;
  };
  Rig rig = timed_set_up();
  const bool federated = rig.stack->federated();
  {
    // A fixed count of requests at saturation before anything is timed
    // brings the caches to their steady state. Memory is read after it:
    // it then depends on the work done, not on how fast the machine ran,
    // and not on the memory the C library keeps for the threads the
    // generator starts in every later phase.
    const PhaseResult fill = gen.closed(rig.conns, spec->depth, 600.0, spec->fill_requests);
    ledger.phase("fill", fill, true);
    values["rss_mb"] = status_mb("VmHWM") - rss_base;
  }

  const auto closed_phase = [&](const std::string& name,
                                 const std::vector<dls::serve::Transport*>& conns,
                                 std::size_t depth, double seconds, Counters* d) {
    const Counters c0 = rig.stack->counters();
    PhaseResult r = gen.closed(conns, depth, seconds);
    const Counters c1 = rig.stack->counters();
    ledger.phase(name, r, true);
    ledger.reconcile(name, r, delta(c1, c0), federated);
    divergence += delta(c1, c0).router.quorum_divergence;
    if (d != nullptr) *d = delta(c1, c0);
    return r;
  };
  const auto ok_rate = [](const PhaseResult& r) {
    return static_cast<double>(r.tally.ok) / r.wall_s;
  };

  // Closed-loop rounds: an unloaded slice (one connection, one request
  // in flight) then a saturation slice (every closed-loop connection,
  // `depth` requests in flight each). In a traced run the rounds are
  // spread between the ladder steps. Each round is bracketed by the
  // probe, which scales its figures to the reference core speed.
  struct Round {
    double rtt_p50 = 0.0;
    double rtt_p99 = 0.0;
    double rps = 0.0;
    double sat_p99_ms = 0.0;
    double cpu_us = 0.0;    ///< server CPU per kOk answer
    double steal = 0.0;     ///< machine steal share while the round ran
    double probe_us = 0.0;  ///< probe_cpu_us() around the round
  };
  std::vector<Round> rounds;
  const std::size_t want_rounds = options.trace ? kTracedRounds : kRounds;
  const double unloaded_s = (options.trace ? kTracedUnloadedShare : kUnloadedShare) * s /
                            static_cast<double>(want_rounds);
  const double saturation_s =
      (options.trace ? kTracedSaturationShare : kSaturationShare) * s /
      static_cast<double>(want_rounds);
  PhaseResult unloaded_all;
  PhaseResult sat_all;
  const auto run_round = [&] {
    const double probe0 = probe_cpu_us();
    const CpuTimes t0 = read_cpu_times();
    const PhaseResult u =
        closed_phase("unloaded", rig.first(1), 1, unloaded_s, nullptr);
    const PhaseResult sat =
        closed_phase("saturation", rig.conns, spec->depth, saturation_s, nullptr);
    const CpuTimes t1 = read_cpu_times();
    Round round;
    std::vector<double> lat = u.latency_us;
    round.rtt_p50 = percentile(lat, 0.5);
    round.rtt_p99 = percentile(lat, 0.99);
    round.rps = ok_rate(sat);
    round.sat_p99_ms = p99(sat.latency_us) * 1e-3;
    round.cpu_us = (sat.process_cpu_s - sat.generator_cpu_s) /
                   static_cast<double>(std::max<std::uint64_t>(sat.tally.ok, 1)) * 1e6;
    round.steal = share(static_cast<double>(t1.steal - t0.steal),
                        static_cast<double>(t1.total - t0.total));
    round.probe_us = 0.5 * (probe0 + probe_cpu_us());
    rounds.push_back(round);
    absorb(unloaded_all, u);
    absorb(sat_all, sat);
  };
  run_round();

  // Open-loop ladder, searched by bisection over the fixed rungs. Its
  // goodput is a per-layer figure, so only a traced run climbs it.
  if (options.trace) {
    const double step_s = kStepShare * s;
    std::map<std::size_t, StepReport> passed;
    const int top = ladder_search(spec->ladder_rps.size(), [&](std::size_t rung) {
      if (rounds.size() < want_rounds) run_round();
      const double rate = spec->ladder_rps[rung];
      const auto abort_backlog = static_cast<std::size_t>(std::max(256.0, rate * 0.25));
      const PhaseResult r = gen.open(rig.first(open_conns), rate, step_s,
                                     options.seed * 1000003 + rung, abort_backlog);
      ledger.phase("ladder@" + json_number(rate), r, false);
      StepReport step;
      step.rate_rps = rate;
      // A refused or lost request misses the latency limit.
      step.p99_ms = windowed_p99(r) * 1e-3;
      step.miss_share =
          windowed_miss_share(r.tally.ok, r.ok_at_s, r.miss_at_s, r.wall_s, kPerWindow);
      std::copy(std::begin(r.backlog), std::end(r.backlog), std::begin(step.backlog));
      if (r.aborted) step.backlog[3] = step.backlog[2] = 1e12;
      step.gen_lag_p99_us = p99(r.lag_us);
      step.ok_rps = static_cast<double>(r.tally.ok) / step_s;
      const StepVerdict verdict = judge_step(step, spec->latency_limit_ms, kLagLimitUs);
      std::printf("ladder rate=%.0f verdict=%s p99_ms=%.3f miss_share=%.4f "
                  "backlog=%.0f/%.0f/%.0f/%.0f gen_lag_p99_us=%.1f ok_rps=%.1f sent=%llu "
                  "server_cpus=%.2f\n",
                  rate,
                  verdict == StepVerdict::kPass   ? "pass"
                  : verdict == StepVerdict::kFail ? "fail"
                                                  : "invalid",
                  step.p99_ms, step.miss_share, r.backlog[0], r.backlog[1], r.backlog[2],
                  r.backlog[3], step.gen_lag_p99_us, step.ok_rps,
                  static_cast<unsigned long long>(r.tally.sent),
                  (r.process_cpu_s - r.generator_cpu_s) / r.wall_s);
      std::fflush(stdout);
      if (verdict == StepVerdict::kPass) passed[rung] = step;
      return verdict;
    });
    values["goodput_rps"] = top >= 0 ? passed[static_cast<std::size_t>(top)].ok_rps : 0.0;
  }
  // A round during which the host stole CPU from this machine measured
  // the host, not the program: while fewer than want_rounds rounds ran on
  // a quiet machine, run extra ones (at most a quarter as many again),
  // then keep the want_rounds rounds with the least steal.
  const auto quiet = [&] {
    return static_cast<std::size_t>(std::count_if(
        rounds.begin(), rounds.end(), [](const Round& r) { return r.steal <= kQuietSteal; }));
  };
  while (rounds.size() < want_rounds ||
         (quiet() < want_rounds && rounds.size() < want_rounds + want_rounds / 4)) {
    run_round();
  }
  print_phase("unloaded", unloaded_all);
  print_classes("unloaded", unloaded_all, inputs.class_names);
  print_phase("saturation", sat_all);
  print_classes("saturation", sat_all, inputs.class_names);
  std::printf("rounds");
  for (const Round& r : rounds) {
    std::printf(" [rtt_p50_us=%.1f max_rps=%.1f cpu_us=%.1f steal=%.3f probe_us=%.1f]",
                r.rtt_p50, r.rps, r.cpu_us, r.steal, r.probe_us);
  }
  std::printf("\n");
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const Round& a, const Round& b) { return a.steal < b.steal; });
  rounds.resize(want_rounds);
  // Each round's figures are scaled by the probe measured around that
  // round; a figure is then the median over the kept rounds. The p99
  // tails stay raw.
  std::vector<double> rtt_p50;
  std::vector<double> rtt_p99;
  std::vector<double> rps;
  std::vector<double> sat_p99;
  std::vector<double> cpu_us;
  std::vector<double> probe;
  for (const Round& r : rounds) {
    const double speed = kProbeRefUs / r.probe_us;
    rtt_p50.push_back(r.rtt_p50 * speed);
    rtt_p99.push_back(r.rtt_p99);
    rps.push_back(r.rps / speed);
    sat_p99.push_back(r.sat_p99_ms);
    cpu_us.push_back(r.cpu_us * speed);
    probe.push_back(r.probe_us);
  }
  values["rtt_p50_us"] = median(rtt_p50);
  values["rtt_p99_us"] = median(rtt_p99);
  values["max_rps"] = median(rps);
  values["sat_p99_ms"] = median(sat_p99);
  values["cpu_us_per_req"] = median(cpu_us);
  std::printf("probe median_us=%.2f ref_us=%.1f\n", median(probe), kProbeRefUs);

  if (options.trace) {
    std::vector<double> single;
    std::vector<double> multi;
    for (std::size_t c = 0; c < inputs.class_names.size(); ++c) {
      auto& into = inputs.class_names[c] == "multi" ? multi : single;
      into.insert(into.end(), sat_all.class_latency_us[c].begin(),
                  sat_all.class_latency_us[c].end());
    }
    values["class.single.sat_p99_ms"] = p99(single) * 1e-3;
    values["class.multi.sat_p99_ms"] = p99(multi) * 1e-3;

    // A traced saturation slice: its rate against the untraced rounds'
    // median is the tracing overhead, and the live counters it leaves
    // are the per-layer counts.
    auto& registry = dls::obs::MetricsRegistry::global();
    registry.reset();
    dls::obs::TraceSink::global().clear();
    dls::obs::set_active(true);
    Counters d;
    const PhaseResult traced =
        closed_phase("traced", rig.conns, spec->depth, kTracedShare * s, &d);
    dls::obs::set_active(false);
    const dls::obs::MetricsSnapshot snap = registry.snapshot();
    dls::obs::TraceSink::global().clear();
    print_phase("traced", traced);
    std::vector<double> raw_rps;
    for (const Round& r : rounds) raw_rps.push_back(r.rps);
    values["trace.overhead_share"] = 1.0 - ok_rate(traced) / median(raw_rps);
    const auto counter = [&](const std::string& name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto histogram = [&](const std::string& name) {
      const auto it = snap.histograms.find(name);
      return it == snap.histograms.end() ? dls::obs::HistogramSnapshot{} : it->second;
    };
    const double sent = static_cast<double>(traced.tally.sent);
    const double rx = static_cast<double>(d.router.received);
    values["cache.live_hit_share"] = share(static_cast<double>(d.cache_hits),
                                           static_cast<double>(d.cache_hits + d.cache_misses));
    values["cache.evictions_per_req"] = share(static_cast<double>(d.cache_evictions), sent);
    values["router.replay_share"] = share(static_cast<double>(d.router.replayed), rx);
    values["router.inline_share"] = share(static_cast<double>(d.router.inline_hits), rx);
    values["router.forwards_per_req"] = share(static_cast<double>(d.router.forwarded), rx);
    values["router.quorum_agreed_share"] = share(static_cast<double>(d.router.quorum_agreed),
                                                 static_cast<double>(d.router.quorum_checked));
    const dls::obs::HistogramSnapshot admit = histogram("serve.request.latency_us");
    values["service.admit_to_resp_p50_us"] = dls::obs::histogram_quantile(admit, 0.5);
    values["service.admit_to_resp_p99_us"] = dls::obs::histogram_quantile(admit, 0.99);
    {
      const auto it = snap.gauges.find("serve.queue_depth");
      values["service.queue_depth_max"] = it == snap.gauges.end() ? 0.0 : it->second;
    }
    const dls::obs::HistogramSnapshot batch = histogram("serve.batch_size");
    values["service.batch_size_mean"] = share(batch.sum, static_cast<double>(batch.count));
    values["service.batched_share"] = share(static_cast<double>(d.service.batched),
                                            static_cast<double>(d.service.ok));
    values["service.refused_share"] =
        share(static_cast<double>(d.service.shed + d.service.expired + d.service.errors +
                                  d.service.degraded),
              static_cast<double>(d.service.received));
    values["solver.batch.lanes_per_solve"] =
        share(counter("serve.batch.lanes"), counter("serve.batch.groups"));

    const LayerReport layers = replay_layers(*spec, inputs, kReplayShare * s);
    for (const auto& [name, value] : layers.metrics) values[name] = value;

    // Closure: the mean per-request sum of isolated stage costs along
    // the paths the live counters say requests took.
    const StageCosts& c = layers.stages;
    double stage_sum = c.pipe_rtt;
    if (federated) {
      const double rep = values["router.replay_share"];
      const double inl = values["router.inline_share"];
      const double fwd = values["router.forwards_per_req"];
      const double inline_lookups = spec->replication == 1 ? rx - static_cast<double>(d.router.replayed) : 0.0;
      const double inline_misses = inline_lookups - static_cast<double>(d.router.inline_hits);
      const double solves = share(static_cast<double>(d.cache_misses) - inline_misses, rx);
      stage_sum += rep * c.encode_resp + (1.0 - rep) * (c.decode_req + c.key + c.owners) +
                   inl * (c.lookup + c.encode_resp) +
                   fwd * (c.encode_req + c.pipe_rtt + c.decode_req + c.dispatch + c.key +
                          c.lookup + c.encode_resp + c.decode_resp +
                          c.payment_share * c.assess_single) +
                   solves * c.solve_single + (1.0 - rep - inl) * c.encode_resp;
    } else {
      const double miss = 1.0 - values["cache.live_hit_share"];
      stage_sum += c.decode_req + c.dispatch + c.encode_resp +
                   (1.0 - c.multi_share) * (c.key + c.lookup + miss * c.solve_single) +
                   c.multi_share * c.multi;
    }
    values["closure.stage_sum_us"] = stage_sum;
    // The stage sum is a mean over the paths requests took, so it is
    // held against the mean unloaded RTT of the same rounds; against
    // the p50 of a multi-path mix it would mostly measure the skew.
    const std::vector<double>& rtt = unloaded_all.latency_us;
    const double rtt_mean = share(std::accumulate(rtt.begin(), rtt.end(), 0.0),
                                  static_cast<double>(rtt.size()));
    std::printf("closure stage_sum_us=%.2f rtt_mean_us=%.2f rtt_p50_us=%.2f\n", stage_sum,
                rtt_mean, values["rtt_p50_us"]);
    values["closure.residual_share"] = 1.0 - share(stage_sum, rtt_mean);
  }
  values["router.quorum_divergence"] = static_cast<double>(divergence);
  if (divergence > 0) {
    ++ledger.failed;
    ledger.problems.push_back("router.quorum_divergence = " + std::to_string(divergence));
  }
  rig.close();
  if (!options.trace) {
    while (setup_times.size() < kSetups) timed_set_up().close();
  }
  values["setup_s"] = median(setup_times);
  std::printf("setup cpu_s=%.6f wall_s=%.6f over %zu set-ups\n", median(setup_times),
              median(setup_walls), setup_walls.size());

  const bool correct = ledger.all.mismatched == 0 && ledger.problems.empty();
  for (const std::string& problem : ledger.problems) {
    std::printf("problem %s\n", problem.c_str());
  }
  std::printf("oracle sent=%llu ok=%llu mismatched=%llu refused=%llu lost=%llu verdict=%s\n",
              static_cast<unsigned long long>(ledger.all.sent),
              static_cast<unsigned long long>(ledger.all.ok),
              static_cast<unsigned long long>(ledger.all.mismatched),
              static_cast<unsigned long long>(ledger.all.refused()),
              static_cast<unsigned long long>(ledger.all.lost), correct ? "pass" : "FAIL");
  const CpuTimes cpu_end = read_cpu_times();
  std::printf("samples rtt=%zu saturation=%zu loadavg_end=%s steal_share=%.3f\n",
              unloaded_all.latency_us.size(), sat_all.latency_us.size(),
              load_average().c_str(),
              share(static_cast<double>(cpu_end.steal - cpu_start.steal),
                    static_cast<double>(cpu_end.total - cpu_start.total)));
  for (const MetricList* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [name, unit] : *list) {
      const auto it = values.find(name);
      if (it != values.end()) {
        std::printf("metric %s = %s %s\n", name.c_str(), json_number(it->second).c_str(),
                    unit.c_str());
      }
    }
  }
  emit(correct, ledger, in_order(options.trace ? per_layer_metrics() : end_to_end_metrics(), values));
  return correct ? 0 : 1;
}

}  // namespace sb
