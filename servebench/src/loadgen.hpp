// The system under test and the load generator that drives it.
//
// Stack builds the serve stack a workload names (a ShardRouter in front
// of colocated SchedulerService shards, or one bare service) and hands
// out in-memory PipeEnd connections. The generator drives those
// connections in two ways:
//  * closed loop: one thread per connection, each keeping `depth`
//    requests in flight; latency is timed from send;
//  * open loop: one sender thread on a seeded Poisson schedule plus one
//    receiver per connection; latency is timed from each request's due
//    time, and the sender's own lateness is reported.
// Every answer is fingerprinted on receipt and checked against the
// oracle after the phase, off the clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace sb {

/// Counters the serve layers already export, summed over shards.
struct Counters {
  dls::serve::RouterStats router;
  dls::serve::ServiceStats service;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};
/// Field-wise a - b of the fields the benchmark reads.
Counters delta(const Counters& a, const Counters& b);

class Stack {
 public:
  explicit Stack(const WorkloadSpec& spec);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<dls::serve::Transport> connect();
  bool federated() const noexcept { return router_ != nullptr; }
  Counters counters() const;

 private:
  std::unique_ptr<dls::exec::ThreadPool> pool_;
  std::vector<std::unique_ptr<dls::serve::SchedulerService>> services_;
  std::unique_ptr<dls::serve::ShardRouter> router_;
};

/// One request's trace through a phase.
struct Record {
  std::int64_t due_ns = 0;   ///< send time (closed) or due time (open)
  std::int64_t recv_ns = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t pool = 0;
  std::uint8_t status = 0;
  bool answered = false;
};

/// Requests sent, answered by status, lost and mismatched in a phase.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t error = 0;
  std::uint64_t degraded = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;  ///< kOk answers that failed the oracle
  std::uint64_t refused() const { return shed + expired + error + degraded; }
  void add(const Tally& other);
};

struct PhaseResult {
  Tally tally;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  std::vector<double> latency_us;  ///< kOk answers
  std::vector<double> ok_at_s;     ///< when each of them was sent or due
  std::vector<double> miss_at_s;   ///< sent or due times of the others
  std::vector<std::vector<double>> class_latency_us;  ///< by input class
  // Open loop only.
  std::vector<double> lag_us;
  /// Requests in flight at 25%, 50%, 75% and 100% of the schedule.
  double backlog[4] = {0.0, 0.0, 0.0, 0.0};
  bool aborted = false;  ///< stopped early: the backlog ran away
};

/// Shared state of a run: the inputs, the send cursor and the
/// pre-allocated record arena (touched before the RSS baseline).
class LoadGen {
 public:
  LoadGen(const Inputs& inputs, std::size_t arena_records);

  /// Restarts the send sequence from its first request (each set-up
  /// runs the same warm-up pass).
  void rewind() { cursor_.store(0); }

  /// Closed loop over `conns` for `seconds` (or until `budget` requests
  /// were sent when budget > 0).
  PhaseResult closed(const std::vector<dls::serve::Transport*>& conns,
                     std::size_t depth, double seconds,
                     std::size_t budget = 0);

  /// Open loop at `rate` req/s for `seconds`, Poisson arrivals from
  /// `seed`. Stops sending early when more than `abort_backlog`
  /// requests are in flight; waits up to 5 s for the last answers.
  PhaseResult open(const std::vector<dls::serve::Transport*>& conns,
                   double rate, double seconds, std::uint64_t seed,
                   std::size_t abort_backlog);

 private:
  /// Checks every answered record of [begin, end) against the oracle
  /// and fills the tally and latencies.
  void settle(std::size_t begin, std::size_t end, std::int64_t t0,
              PhaseResult& result) const;
  std::uint64_t request_id(std::size_t slot) const;
  /// Arena slot of a response id, or SIZE_MAX when it belongs to an
  /// earlier phase.
  std::size_t slot_of(std::uint64_t id) const;

  const Inputs& inputs_;
  std::vector<Record> arena_;
  std::atomic<std::size_t> cursor_{0};
  std::uint32_t epoch_ = 0;
};

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

}  // namespace sb
