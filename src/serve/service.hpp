// The scheduling service: concurrent DLS-LBL sessions behind a framed
// transport, with admission control, per-request deadlines, solve cache.
//
// Shape (mirroring a BOINC-style scheduler front-end):
//
//   client ──Pipe── session reader ──bounded queue── dispatcher ── pool
//                       │                 │               │
//                       │ shed when full  │ expire past   │ batch solve
//                       ▼                 ▼ deadline      ▼ via cache
//                    responses written back on the request's connection
//
//  * connect() / adopt() hand a Transport to the SessionCore shared with
//    the router (session.hpp). Its reader thread decodes frames and
//    admits *synchronously*: a full queue answers kShed immediately —
//    backpressure is explicit, never a silent stall.
//  * A dispatcher thread drains the queue in batches of at most
//    `max_batch` and solves them concurrently on the exec::ThreadPool.
//  * Each request's deadline (admission-relative, µs) is checked before
//    solving; an expired request is answered kExpired solver-untouched.
//  * Same-length cache misses of one dispatch window coalesce into one
//    SoA batch solve (dlt::BatchLinearSolver); responses stay
//    bit-identical to per-request solves.
//  * Solutions are memoised in a SolveCache keyed by canonical (w, z)
//    bytes. Metrics (serve.*): see docs/OBSERVABILITY.md.
//  * Multi-load requests (kMultiScheduleRequest) share the same queue
//    and shed/degraded/expired/stop semantics but solve via
//    multiload::MultiLoadSolver per request (the answer depends on the
//    whole mix — nothing to cache); single-load bytes are unchanged.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/dls_lbl.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/key_hash.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/service_wire.hpp"
#include "serve/session.hpp"

namespace dls::serve {

struct ServiceConfig {
  /// Admission bound: requests beyond this many queued are shed.
  std::size_t queue_capacity = 64;
  /// Requests solved per dispatcher wake-up (concurrently, on the pool).
  std::size_t max_batch = 8;
  /// Batched-solve threshold: cache-miss requests in the same dispatch
  /// window whose chains have equal length are coalesced into one
  /// BatchLinearSolver solve when at least this many distinct instances
  /// group together (duplicate topologies are deduplicated into one
  /// lane regardless). Responses stay bit-identical to unbatched
  /// solves. 0 disables dispatch-window batching entirely.
  std::size_t batch_min_lanes = 2;
  /// Solve-cache capacity in resident solutions; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Deadline applied to requests that carry none; 0 = no deadline.
  double default_deadline_us = 0.0;
  /// Payment arithmetic for want_payments requests.
  core::MechanismConfig mechanism;
  /// Start with the dispatcher held: requests are admitted (or shed)
  /// but nothing is solved until resume(). Tests use this to provoke
  /// deterministic queue-full and deadline-expiry behaviour.
  bool start_paused = false;
  /// Brown-out watermark: when the queue holds at least this many
  /// requests, cache hits are answered inline from the reader thread
  /// and cache misses get a typed kDegraded refusal with a retry-after
  /// hint instead of queueing. 0 disables brown-out.
  std::size_t brownout_watermark = 0;
  /// The retry-after hint carried by kDegraded responses (µs).
  double degraded_retry_after_us = 1000.0;
  /// Poison-frame tolerance: how many resynchronised (garbled) frames
  /// a connection may send before it is quarantined (closed).
  std::size_t poison_budget = 8;
  /// Bytes the framing layer may discard hunting for the next frame
  /// boundary after a malformed header, per incident.
  std::size_t resync_scan_bytes = 65536;
};

/// Transport-independent response counts (kept regardless of whether
/// the obs runtime switch is on). Each is a per-instance counter
/// mirrored into one registry metric (SchedulerService::Counters) or,
/// where noted, a sum.
struct ServiceStats {
  std::uint64_t received = 0;  ///< well-formed requests read off the wire
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded = 0;       ///< kDegraded brown-out refusals
  std::uint64_t poison_frames = 0;  ///< frames recovered via resync or
                                    ///< failing their checksum
  std::uint64_t quarantined = 0;    ///< connections closed for poison
  std::uint64_t batched = 0;        ///< sum: batch lanes + deduped
  std::uint64_t batch_groups = 0;   ///< batched solver runs dispatched
  std::uint64_t batch_deduped = 0;  ///< duplicate topologies answered
                                    ///< from a batchmate's lane
  std::uint64_t inline_hits = 0;    ///< try_serve_inline cache answers
  /// Well-formed multi-load requests read off the wire (also counted
  /// in `received`; responses land in the shared status counters).
  std::uint64_t multi_received = 0;
  std::uint64_t multi_loads = 0;  ///< loads inside kOk multi responses
};

class SchedulerService {
 public:
  /// `pool` defaults to exec::ThreadPool::global().
  explicit SchedulerService(ServiceConfig config,
                            exec::ThreadPool* pool = nullptr);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Opens an in-memory connection and returns the client end. Each
  /// connection is served by its own reader thread until the client
  /// closes or the service stops.
  PipeEnd connect();

  /// Serves an established transport (an accepted socket, a chaos
  /// wrapper, ...) with the same per-connection reader machinery that
  /// backs connect(). The service owns the transport from here on.
  void adopt(std::unique_ptr<Transport> transport);

  /// Colocated fast path for a router sharing this process: answers
  /// `request` from the solve cache without touching the wire, the
  /// admission queue or the dispatcher. `key` is the request's
  /// canonical_topology_key with its hash, as the router placed it.
  /// Returns true (and fills `response`, bit-identical to a queued
  /// cache hit) only for payment-free cache hits on a valid instance;
  /// everything else — misses, payments, malformed requests — returns
  /// false so the caller falls back to the framed path and its full
  /// admission semantics.
  bool try_serve_inline(const ScheduleRequest& request, KeyRef key,
                        ScheduleResponse& response);

  /// Holds / releases the dispatcher. Admission keeps running while
  /// paused, so the queue fills and sheds deterministically.
  void pause();
  void resume();

  /// Answers everything still queued with kError, closes every
  /// connection and joins all threads. Idempotent; the destructor
  /// calls it.
  void stop();

  ServiceStats stats() const;
  const SolveCache& cache() const noexcept { return cache_; }

 private:
  /// A response of either traffic kind on its way to the wire.
  using Reply = std::variant<ScheduleResponse, MultiScheduleResponse>;
  struct Pending {
    ScheduleRequest request;
    /// Engaged for multi-load traffic; `request` is then unused.
    std::optional<MultiScheduleRequest> multi;
    std::chrono::steady_clock::time_point admitted_at;
    FrameSession* session = nullptr;

    std::uint64_t id() const {
      return multi ? multi->request_id : request.request_id;
    }
  };

  /// SessionCore handler: decodes one request frame of either kind and
  /// admits it; anything else is refused with a typed kError.
  void on_frame(FrameSession& session, const Frame& frame);
  /// Shared admission for single- and multi-load traffic: one bounded
  /// queue, FIFO across both kinds, kShed in the request's own response
  /// type when full. Stamps admitted_at at the moment of queueing.
  void admit(Pending pending);
  /// Brown-out path: answers `pending` inline (cache hit or kDegraded)
  /// when the queue is above the watermark. Returns false when the
  /// request should proceed to normal admission.
  bool try_brownout(const Pending& pending);
  void dispatch_loop();
  void process_batch(std::vector<Pending>& batch);

  /// Same-length cache misses of one dispatch window, coalesced into one
  /// BatchLinearSolver run. `members[lane]` is the batch index solved in
  /// `lane`; `aliases` are duplicate-topology requests answered from an
  /// existing lane's solution instead of their own.
  struct MissGroup {
    std::size_t chain = 0;  ///< processors per instance
    std::vector<std::size_t> members;
    std::vector<HashedKey> keys;  ///< cache key per lane
    std::vector<net::LinearNetwork> networks;  ///< validated, per lane
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
  };
  /// Per-group reusable solver + assessment buffers, owned by the
  /// dispatcher and handed to pool tasks one group each.
  struct DispatchScratch {
    dlt::BatchLinearSolver solver;
    core::AssessWorkspace assess;
  };

  /// A request routed to the per-request path. For single-load traffic
  /// triage already validated the instance (`network` set) and its cache
  /// key and lookup result ride along, so handle() neither rebuilds them
  /// nor looks up (and counts) a second time; multi-load tasks carry the
  /// index alone.
  struct SingleTask {
    std::size_t index = 0;
    std::optional<net::LinearNetwork> network;
    HashedKey key;
    SolveCache::Value solution;  ///< null = known miss
  };

  /// Dispatcher-thread triage of one window, the one pass every
  /// admitted request goes through: answers expired requests of both
  /// kinds, invalid instances (kError) and payment-free cache hits in
  /// place (into `replies`), groups batchable cache misses by chain
  /// length, and routes everything else (multi-load requests, cache hits
  /// wanting payments, misses with batching disabled, leftovers of
  /// undersized groups) to `singles` for handle() / handle_multi().
  void classify_window(const std::vector<Pending>& batch,
                       std::vector<Reply>& replies,
                       std::vector<SingleTask>& singles,
                       std::vector<MissGroup>& groups);
  /// Solves one miss group on the pool; fills member and alias
  /// responses (bit-identical to handle() on each request alone) and
  /// moves each lane's key into the cache.
  void solve_group_lanes(const MissGroup& group, DispatchScratch& scratch,
                         const std::vector<Pending>& batch);
  void solve_group(MissGroup& group, DispatchScratch& scratch,
                   const std::vector<Pending>& batch,
                   std::vector<Reply>& replies);
  /// Solves (or refuses) one triaged request; pure apart from cache and
  /// metric updates, so batch items run concurrently on the pool. Solves
  /// only a known miss, moving the task's key into the cache; payments
  /// reuse the one solution, cached or fresh.
  ScheduleResponse handle(const Pending& pending, SingleTask& task);
  /// Solves (or refuses) one triaged multi-load request via
  /// multiload::MultiLoadSolver.
  MultiScheduleResponse handle_multi(const Pending& pending);
  /// A request's deadline (µs) after defaulting: its own when positive,
  /// else ServiceConfig::default_deadline_us; <= 0 means none.
  double effective_deadline_us(double requested) const {
    return requested <= 0.0 ? config_.default_deadline_us : requested;
  }
  /// The typed refusal both traffic kinds share (shed, degraded, expiry,
  /// invalid instance, stop drain, batch failure, decode error,
  /// unexpected frame type): status and text — plus the configured
  /// retry-after hint for kDegraded — in the response type of the
  /// request's kind.
  Reply refusal(bool multi, std::uint64_t request_id, ScheduleStatus status,
                std::string error = {}) const;
  /// Counts `reply` by status and writes it to `session` as one frame.
  void respond(FrameSession& session, const Reply& reply);

  ServiceConfig config_;
  exec::ThreadPool* pool_;
  SolveCache cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;

  /// One counter per ServiceStats field that is not a sum (plus the
  /// batch lanes), named after its metric; stats() reads them back.
  struct Counters {
    obs::InstanceCounter received{"serve.requests"};
    obs::InstanceCounter multi_received{"serve.multi.requests"};
    obs::InstanceCounter admitted{"serve.admitted"};
    obs::InstanceCounter ok{"serve.responses.ok"};
    obs::InstanceCounter shed{"serve.responses.shed"};
    obs::InstanceCounter expired{"serve.responses.expired"};
    obs::InstanceCounter errors{"serve.responses.error"};
    obs::InstanceCounter degraded{"serve.degraded"};
    obs::InstanceCounter multi_loads{"serve.multi.loads"};
    obs::InstanceCounter inline_hits{"serve.inline_hits"};
    obs::InstanceCounter batch_groups{"serve.batch.groups"};
    obs::InstanceCounter batch_lanes{"serve.batch.lanes"};
    obs::InstanceCounter batch_deduped{"serve.batch.dedup"};
  };
  Counters counters_;

  /// Grown to the window's group count and reused across windows; only
  /// the dispatcher (and the pool tasks it fans out per window) touch it.
  std::vector<std::unique_ptr<DispatchScratch>> dispatch_scratch_;

  std::thread dispatcher_;
  /// Built from config_; stop() joins its readers, which call back into
  /// everything above, before any of it is torn down.
  SessionCore sessions_;
};

}  // namespace dls::serve
