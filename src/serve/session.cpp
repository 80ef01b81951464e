#include "serve/session.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::serve {

SessionCore::SessionCore(std::size_t poison_budget,
                         std::size_t resync_scan_bytes, FrameHandler on_frame)
    : poison_budget_(poison_budget),
      resync_scan_bytes_(resync_scan_bytes),
      on_frame_(std::move(on_frame)) {}

SessionCore::~SessionCore() { stop(); }

void SessionCore::adopt(std::unique_ptr<FrameSession> session) {
  DLS_REQUIRE(session != nullptr && session->end != nullptr,
              "adopt() needs a transport");
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  DLS_REQUIRE(accepting_, "adopt()/connect() after stop()");
  // Reap sessions whose reader has already returned (peer hung up or
  // was quarantined) so reconnect storms don't accumulate dead threads
  // for the lifetime of the owner.
  std::erase_if(sessions_, [](const std::unique_ptr<FrameSession>& s) {
    if (!s->done.load(std::memory_order_acquire) ||
        s->pending.load(std::memory_order_acquire) != 0) {
      return false;
    }
    if (s->reader.joinable()) s->reader.join();
    return true;
  });
  FrameSession* raw = session.get();
  raw->reader = std::thread([this, raw] {
    run(*raw);
    raw->done.store(true, std::memory_order_release);
  });
  sessions_.push_back(std::move(session));
}

void SessionCore::stop(const std::function<void()>& drain) {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    accepting_ = false;
  }
  if (drain) drain();
  std::vector<std::unique_ptr<FrameSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  // Closing the server ends unblocks every reader (EOF) and makes any
  // late response write throw, which the owners absorb.
  for (auto& session : sessions) session->close();
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }
}

void SessionCore::run(FrameSession& session) {
  std::size_t poison = 0;
  try {
    for (;;) {
      std::size_t skipped = 0;
      std::optional<Frame> frame;
      try {
        frame = read_frame_resync(*session.end, resync_scan_bytes_, &skipped);
      } catch (const FrameTruncationError&) {
        // Peer vanished mid-frame (torn write / silent disconnect):
        // the connection is dead, nothing to salvage.
        return;
      } catch (const FrameChecksumError&) {
        // Payload corrupted in flight, but the announced length was
        // fully consumed so the stream is still frame-aligned: a
        // poison frame, not a dead connection.
        DLS_COUNT("serve.fault.checksum_mismatches");
        if (charge_poison(session, poison)) return;
        continue;
      } catch (const codec::DecodeError&) {
        // The resync scan gave up (budget exhausted or the stream died
        // while hunting): this peer is sending garbage, not frames.
        quarantine(session);
        return;
      }
      if (skipped > 0) {
        // A malformed header was skipped over to reach this frame.
        DLS_COUNT("serve.fault.resync_bytes", skipped);
        if (charge_poison(session, poison)) return;
      }
      if (!frame) return;  // clean EOF: the client hung up
      on_frame_(session, *frame);
    }
  } catch (const TransportError&) {
    // Peer vanished; the connection is dead either way.
  }
}

bool SessionCore::charge_poison(FrameSession& session, std::size_t& poison) {
  poison_frames_.add();
  if (++poison <= poison_budget_) return false;
  quarantine(session);
  return true;
}

void SessionCore::quarantine(FrameSession& session) {
  quarantined_.add();
  // Closing only this connection tears down the poisoned peer without
  // touching the owner's other sessions; the client observes EOF for
  // anything it still believes is in flight.
  session.close();
}

}  // namespace dls::serve
