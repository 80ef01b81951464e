// The framed-connection core both serve front-ends run on: the
// SchedulerService and the ShardRouter adopt connections here and
// receive well-formed frames back through one handler.
//
// Each adopted connection gets a reader thread running one loop:
//
//   read_frame_resync ──► poison budget ──► owner's frame handler
//        │                     │            (type + raw payload, before
//        │ EOF / torn frame    │             any decode)
//        ▼                     └─ over budget, or the resync scan gave
//     reader returns              up: quarantine (close this connection)
//
//  * A checksum-failed frame and a frame recovered by resync each cost
//    one unit of the connection's poison budget; the frame after the
//    budget is spent quarantines the connection. Other connections, and
//    the owner's dispatcher, are never touched.
//  * The core also owns the session bookkeeping: spawn a reader per
//    adopted connection, reap readers that returned (and whose owner no
//    longer owes them a response), close every connection and join
//    every reader on stop().
//  * Fault metrics land under one fixed family for both tiers
//    (serve.fault.poison_frames, serve.fault.checksum_mismatches,
//    serve.fault.resync_bytes, serve.quarantined); the first and last
//    are per-instance counters, read back through poison_frames() /
//    quarantined() into the owner's *Stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/frame.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

/// One framed connection. Owners derive from it to hang per-connection
/// state off the session (the router's backend links).
struct FrameSession {
  FrameSession() = default;
  virtual ~FrameSession() = default;
  FrameSession(const FrameSession&) = delete;
  FrameSession& operator=(const FrameSession&) = delete;

  /// Closes the connection, which unblocks the reader. Owners whose
  /// handler can park the reader elsewhere (a router forward round
  /// trip) close that too.
  virtual void close() noexcept { end->close(); }

  std::unique_ptr<Transport> end;  ///< server side of the connection
  std::thread reader;
  std::atomic<bool> done{false};  ///< reader loop has returned
  /// Responses another thread (the service's dispatcher) still owes
  /// this session; it is reaped only once done and pending == 0.
  std::atomic<std::size_t> pending{0};
};

class SessionCore {
 public:
  /// Runs on the session's reader thread for each well-formed frame.
  using FrameHandler = std::function<void(FrameSession&, const Frame&)>;

  SessionCore(std::size_t poison_budget, std::size_t resync_scan_bytes,
              FrameHandler on_frame);
  ~SessionCore();

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Reaps finished sessions, then starts `session`'s reader thread.
  /// The core owns the session from here on. Throws after stop().
  void adopt(std::unique_ptr<FrameSession> session);

  /// Refuses further adopt() calls, runs `drain` (the owner's last
  /// writes to sessions that are still open), then closes every session
  /// and joins its reader. Idempotent.
  void stop(const std::function<void()>& drain = {});

  /// Poison frames read across all sessions (checksum-failed or
  /// recovered by resync).
  std::uint64_t poison_frames() const noexcept {
    return poison_frames_.value();
  }
  /// Connections closed for exhausting their poison budget or for a
  /// stream the resync scan could not rescue.
  std::uint64_t quarantined() const noexcept { return quarantined_.value(); }

 private:
  void run(FrameSession& session);
  /// Charges one poison frame to the session; quarantines it and
  /// returns true once `poison` exceeds the budget.
  bool charge_poison(FrameSession& session, std::size_t& poison);
  void quarantine(FrameSession& session);

  std::size_t poison_budget_;
  std::size_t resync_scan_bytes_;
  FrameHandler on_frame_;

  std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<FrameSession>> sessions_;
  bool accepting_ = true;

  obs::InstanceCounter poison_frames_{"serve.fault.poison_frames"};
  obs::InstanceCounter quarantined_{"serve.quarantined"};
};

}  // namespace dls::serve
