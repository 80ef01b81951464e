// Fault-injecting transport decorator for chaos testing the serve
// layer.
//
// ChaosTransport wraps any Transport (a PipeEnd today, a socket
// tomorrow) and injects seeded, deterministic faults at the byte
// level — the layer where production failures actually happen:
//
//   kPartialWrite — one write split into two transport units (exercises
//                   reassembly; invisible over a stream, fatal over a
//                   datagram seam)
//   kTruncate     — a strict prefix is written, then the stream closes:
//                   the peer sees a torn frame (FrameTruncationError)
//   kCorrupt      — one bit of the written copy flipped (the caller's
//                   buffer is never touched): decode-side rejection
//   kDelay        — delivery delayed by a bounded random sleep
//   kDisconnect   — the write vanishes and the stream closes silently:
//                   frame loss that unblocks readers with EOF
//   kDuplicate    — the unit is delivered twice (stale-response
//                   handling on the client)
//
// All randomness flows through a seeded common::Rng, so a failing soak
// run replays bit-identically from its seed. Fault decisions serialize
// on an internal mutex; injected sleeps happen outside it.
//
// Metrics: serve.fault.{partial_write,truncate,corrupt,delay,
// disconnect,duplicate} count injections and serve.chaos.{writes,reads}
// the calls that reached the wrapper; each is a per-instance counter,
// read back through stats() without the obs runtime switch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/pipe.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

enum class FaultKind : std::uint8_t {
  kPartialWrite = 0,
  kTruncate = 1,
  kCorrupt = 2,
  kDelay = 3,
  kDisconnect = 4,
  kDuplicate = 5,
};

inline constexpr std::size_t kFaultKindCount = 6;

std::string to_string(FaultKind kind);

/// Per-write / per-read fault probabilities, each in [0, 1] and sampled
/// independently. kTruncate and kDisconnect end the stream, so at most
/// one terminal fault fires per write; the others compose.
struct ChaosConfig {
  double partial_write = 0.0;
  double truncate = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  double disconnect = 0.0;
  double duplicate = 0.0;
  /// Read-side variants: corrupt/delay applied to inbound bytes.
  double read_corrupt = 0.0;
  double read_delay = 0.0;
  /// Injected sleeps are uniform in [0, max_delay_us] microseconds.
  double max_delay_us = 200.0;

  /// A config injecting exactly one fault kind with probability `p`
  /// (write-side; kCorrupt and kDelay also arm the read-side twin).
  static ChaosConfig only(FaultKind kind, double p);
};

/// Injection counts, indexed by FaultKind; kept unconditionally so
/// tests can assert determinism without the obs runtime switch.
struct FaultStats {
  std::array<std::uint64_t, kFaultKindCount> injected{};
  std::uint64_t writes = 0;  ///< write() calls that reached the wrapper
  std::uint64_t reads = 0;   ///< reads that delivered bytes

  std::uint64_t count(FaultKind kind) const noexcept {
    return injected[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_injected() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t n : injected) sum += n;
    return sum;
  }
};

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, const ChaosConfig& config,
                 std::uint64_t seed);
  /// Convenience: wrap the client end returned by
  /// SchedulerService::connect().
  ChaosTransport(PipeEnd end, const ChaosConfig& config, std::uint64_t seed)
      : ChaosTransport(std::make_unique<PipeEnd>(std::move(end)), config,
                       seed) {}

  void write(std::span<const std::uint8_t> data) override;
  bool read_exact(std::span<std::uint8_t> out) override;
  ReadOutcome read_partial(std::span<std::uint8_t> out,
                           double timeout_s) override;
  void close() noexcept override;
  bool valid() const noexcept override;

  FaultStats stats() const;

 private:
  /// One write-side fault plan, sampled under the mutex.
  struct WritePlan {
    bool disconnect = false;
    bool truncate = false;
    std::size_t truncate_at = 0;
    bool corrupt = false;
    std::size_t corrupt_byte = 0;
    std::uint8_t corrupt_mask = 0;
    bool delay = false;
    double delay_us = 0.0;
    bool partial = false;
    std::size_t split_at = 0;
    bool duplicate = false;
  };

  WritePlan plan_write(std::size_t size);
  void apply_read_faults(std::span<std::uint8_t> got);
  /// Samples read_delay once before the very first read delegates, so
  /// a freshly (re)connected wrapper — e.g. a breaker half-open probe —
  /// sees realistic latency instead of a fault-free first read.
  void maybe_first_read_delay();
  void note(FaultKind kind);

  std::unique_ptr<Transport> inner_;
  ChaosConfig config_;
  mutable std::mutex mutex_;
  common::Rng rng_;
  bool first_read_pending_ = true;

  /// Indexed by FaultKind; mirrored into serve.fault.<kind>.
  std::array<obs::InstanceCounter, kFaultKindCount> injected_{
      obs::InstanceCounter("serve.fault.partial_write"),
      obs::InstanceCounter("serve.fault.truncate"),
      obs::InstanceCounter("serve.fault.corrupt"),
      obs::InstanceCounter("serve.fault.delay"),
      obs::InstanceCounter("serve.fault.disconnect"),
      obs::InstanceCounter("serve.fault.duplicate")};
  obs::InstanceCounter writes_{"serve.chaos.writes"};
  obs::InstanceCounter reads_{"serve.chaos.reads"};
};

}  // namespace dls::serve
