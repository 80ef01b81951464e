#include "serve/chaos.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace dls::serve {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartialWrite:
      return "partial_write";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDisconnect:
      return "disconnect";
    case FaultKind::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

ChaosConfig ChaosConfig::only(FaultKind kind, double p) {
  ChaosConfig config;
  switch (kind) {
    case FaultKind::kPartialWrite:
      config.partial_write = p;
      break;
    case FaultKind::kTruncate:
      config.truncate = p;
      break;
    case FaultKind::kCorrupt:
      config.corrupt = p;
      config.read_corrupt = p;
      break;
    case FaultKind::kDelay:
      config.delay = p;
      config.read_delay = p;
      break;
    case FaultKind::kDisconnect:
      config.disconnect = p;
      break;
    case FaultKind::kDuplicate:
      config.duplicate = p;
      break;
  }
  return config;
}

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               const ChaosConfig& config, std::uint64_t seed)
    : inner_(std::move(inner)), config_(config), rng_(seed) {
  DLS_REQUIRE(inner_ != nullptr, "ChaosTransport needs an inner transport");
}

void ChaosTransport::note(FaultKind kind) {
  injected_[static_cast<std::size_t>(kind)].add();
}

ChaosTransport::WritePlan ChaosTransport::plan_write(std::size_t size) {
  WritePlan plan;
  writes_.add();
  if (rng_.bernoulli(config_.disconnect)) {
    plan.disconnect = true;
    note(FaultKind::kDisconnect);
    return plan;  // terminal: nothing else fires on this write
  }
  if (size > 1 && rng_.bernoulli(config_.truncate)) {
    plan.truncate = true;
    plan.truncate_at = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(size) - 1));
    note(FaultKind::kTruncate);
    return plan;  // terminal as well: the stream closes mid-unit
  }
  if (size > 0 && rng_.bernoulli(config_.corrupt)) {
    plan.corrupt = true;
    plan.corrupt_byte = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    plan.corrupt_mask =
        static_cast<std::uint8_t>(1U << rng_.uniform_int(0, 7));
    note(FaultKind::kCorrupt);
  }
  if (rng_.bernoulli(config_.delay)) {
    plan.delay = true;
    plan.delay_us = rng_.uniform01() * config_.max_delay_us;
    note(FaultKind::kDelay);
  }
  if (size > 1 && rng_.bernoulli(config_.partial_write)) {
    plan.partial = true;
    plan.split_at = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(size) - 1));
    note(FaultKind::kPartialWrite);
  }
  if (rng_.bernoulli(config_.duplicate)) {
    plan.duplicate = true;
    note(FaultKind::kDuplicate);
  }
  return plan;
}

void ChaosTransport::write(std::span<const std::uint8_t> data) {
  WritePlan plan;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan = plan_write(data.size());
  }
  if (plan.delay) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(plan.delay_us));
  }
  if (plan.disconnect) {
    // The write "succeeds" from the caller's point of view but the
    // bytes vanish and the stream dies: silent frame loss. Readers on
    // the peer unblock with EOF instead of hanging.
    inner_->close();
    return;
  }
  if (plan.truncate) {
    inner_->write(data.first(plan.truncate_at));
    inner_->close();
    return;
  }
  std::vector<std::uint8_t> mutated;
  std::span<const std::uint8_t> unit = data;
  if (plan.corrupt) {
    mutated.assign(data.begin(), data.end());
    mutated[plan.corrupt_byte] ^= plan.corrupt_mask;
    unit = mutated;
  }
  if (plan.partial) {
    inner_->write(unit.first(plan.split_at));
    inner_->write(unit.subspan(plan.split_at));
  } else {
    inner_->write(unit);
  }
  if (plan.duplicate) inner_->write(unit);
}

void ChaosTransport::apply_read_faults(std::span<std::uint8_t> got) {
  bool corrupt = false;
  std::size_t byte = 0;
  std::uint8_t mask = 0;
  bool delay = false;
  double delay_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reads_.add();
    if (!got.empty() && rng_.bernoulli(config_.read_corrupt)) {
      corrupt = true;
      byte = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(got.size()) - 1));
      mask = static_cast<std::uint8_t>(1U << rng_.uniform_int(0, 7));
      note(FaultKind::kCorrupt);
    }
    if (rng_.bernoulli(config_.read_delay)) {
      delay = true;
      delay_us = rng_.uniform01() * config_.max_delay_us;
      note(FaultKind::kDelay);
    }
  }
  if (delay) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(delay_us));
  }
  if (corrupt) got[byte] ^= mask;
}

void ChaosTransport::maybe_first_read_delay() {
  // apply_read_faults only fires once bytes arrived, so a freshly
  // (re)constructed wrapper — the shape of every breaker half-open
  // probe, which reconnects and then waits for its probe response —
  // used to see zero injected latency until mid-stream. Sample the
  // delay once up front so the first read pays connection-establishment
  // latency like the rest of the stream does.
  bool delay = false;
  double delay_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_read_pending_) return;
    first_read_pending_ = false;
    if (rng_.bernoulli(config_.read_delay)) {
      delay = true;
      delay_us = rng_.uniform01() * config_.max_delay_us;
      note(FaultKind::kDelay);
    }
  }
  if (delay) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(delay_us));
  }
}

bool ChaosTransport::read_exact(std::span<std::uint8_t> out) {
  maybe_first_read_delay();
  if (!inner_->read_exact(out)) return false;
  apply_read_faults(out);
  return true;
}

ReadOutcome ChaosTransport::read_partial(std::span<std::uint8_t> out,
                                         double timeout_s) {
  maybe_first_read_delay();
  const ReadOutcome got = inner_->read_partial(out, timeout_s);
  if (got.received > 0) apply_read_faults(out.first(got.received));
  return got;
}

void ChaosTransport::close() noexcept { inner_->close(); }

bool ChaosTransport::valid() const noexcept { return inner_->valid(); }

FaultStats ChaosTransport::stats() const {
  FaultStats stats;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    stats.injected[k] = injected_[k].value();
  }
  stats.writes = writes_.value();
  stats.reads = reads_.value();
  return stats;
}

}  // namespace dls::serve
