// The sharded-federation front-end: routes schedule requests across N
// SchedulerService shards, replicates solves, quorum-checks the answers.
//
// Shape (BOINC-style dispatch, sched/ exemplar in ROADMAP):
//
//   client ──frames── router session ──frames── shard 0..N-1 backends
//                        │     │
//         inline cache ──┘     └── ShardMap (consistent hash, liveness)
//         (colocated shard)          │
//                               health monitor (heartbeat-style probes)
//
//  * Client connections run on the SessionCore shared with the service
//    (raw payload in, before any decode) plus lazy backend links.
//  * A request's owners are the first R distinct alive shards clockwise
//    from its canonical_topology_key ring position (shard.hpp). The
//    primary owner's colocated service (RouterConfig::local) answers
//    payment-free cache hits inline, no wire; the replay byte-cache
//    answers repeats without decoding at all.
//  * Replication: the client's payload goes to every owner, id patched;
//    kOk answers are byte-compared bar the id and cache-hit fields and
//    the first one's bytes are relayed under the client's id. Divergence
//    is a typed incident — the client gets a kError refusal, never a
//    divergent answer. With no kOk, the most actionable refusal wins:
//    kDegraded with the largest retry-after, else kShed, else kError.
//  * Shard death: forward failures count against the reused
//    protocol::HeartbeatConfig retry budget; exhausting it marks the
//    shard dead (a consistent-hash rebalance — only that arc moves). A
//    monitor probes dead shards with exponential backoff to revive.
// Metrics (serve.shard.* / serve.quorum.*): see docs/OBSERVABILITY.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/bytes.hpp"

#include "obs/metrics.hpp"
#include "protocol/recovery.hpp"
#include "serve/key_hash.hpp"
#include "serve/pipe.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

struct RouterConfig {
  /// Number of shards in the federation (ring size).
  std::size_t shard_count = 1;
  /// Opens a fresh connection to shard `i`. Called lazily per client
  /// session and from the health monitor's revival probes; may throw
  /// TransportError (counted as a forward failure). Required.
  std::function<std::unique_ptr<Transport>(std::size_t shard)> connect;
  /// Colocated shard services, indexed by shard; entries may be null.
  /// Used only for the inline cache fast path — forwarding still goes
  /// through `connect` so chaos wrappers stay in the loop.
  std::vector<SchedulerService*> local;
  /// Replication factor R: how many distinct owners each request is
  /// sent to (clamped to the alive shard count).
  std::size_t replication = 1;
  /// Heartbeat-style failure accounting, reused from the recovery
  /// layer: retry_budget consecutive forward failures confirm a shard
  /// dead; the monitor re-probes with exponential backoff derived from
  /// period/backoff_factor/max_backoff (seconds here).
  protocol::HeartbeatConfig heartbeat{
      /*period=*/0.02, /*timeout=*/0.02, /*retry_budget=*/3,
      /*backoff_factor=*/2.0, /*max_backoff=*/0.5};
  /// Run the dead-shard revival monitor thread. Off, revival only
  /// happens when a test flips the map by hand.
  bool probe_dead_shards = true;
  /// Per-forward response deadline (seconds); <= 0 waits forever.
  double forward_timeout_s = 5.0;
  /// Retry-after hint (µs) on router-originated kDegraded refusals
  /// (no alive owner / every forward failed).
  double degraded_retry_after_us = 2000.0;
  /// Client-facing framing discipline, mirroring ServiceConfig.
  std::size_t poison_budget = 8;
  std::size_t resync_scan_bytes = 65536;
  /// Ring granularity (ShardMapConfig::vnodes).
  std::size_t vnodes = 64;
  /// Capacity (entries; 0 disables) of the replay byte-cache. It keys
  /// the request payload after the request_id field and holds the
  /// response payload encoding, so a repeat under any id — a fresh one
  /// or an idempotent retry reusing its own — is answered with one id
  /// patch and one re-frame, no decoding or encoding of the request or
  /// the answer. Populated only downstream of the colocated inline fast
  /// path, so every entry is a payment-free, deadline-free cache hit —
  /// the only traffic whose response is a pure function of the request
  /// bytes. Keying on the rest of the payload means any change to the
  /// round tag, deadline, payments flag or topology misses and takes the
  /// full path. Bounded, FIFO-evicted. Only that inline path can fill
  /// it, so the tier exists (and requests are looked up in it) only when
  /// `replication == 1` and `local` is non-empty; otherwise this is
  /// ignored.
  std::size_t replay_cache_capacity = 128;
};

/// Transport-independent routing counts (kept regardless of the obs
/// runtime switch). Each is a per-instance counter mirrored into one
/// registry metric (ShardRouter::Counters) or, where noted, a sum.
struct RouterStats {
  std::uint64_t received = 0;      ///< well-formed requests read
  std::uint64_t inline_hits = 0;   ///< answered from a colocated cache
  std::uint64_t replayed = 0;      ///< answered from the replay byte-cache
  std::uint64_t forwarded = 0;     ///< request copies sent to shards
  std::uint64_t forward_failures = 0;  ///< wire/decode failures talking
                                       ///< to a shard
  std::uint64_t answered_ok = 0;   ///< kOk answers returned to clients
  std::uint64_t refused = 0;       ///< typed non-kOk answers returned
  std::uint64_t no_owner = 0;      ///< no alive shard owned the key
  std::uint64_t quorum_checked = 0;    ///< sum: agreed + divergence
  std::uint64_t quorum_agreed = 0;     ///< all compared answers matched
  std::uint64_t quorum_divergence = 0; ///< mismatch → typed incident
  std::uint64_t quorum_single = 0;     ///< lone kOk accepted unchecked
  std::uint64_t shard_deaths = 0;      ///< marked dead
  std::uint64_t shard_revivals = 0;    ///< marked alive again
  std::uint64_t rebalances = 0;        ///< sum: deaths + revivals
  std::uint64_t poison_frames = 0;     ///< client frames recovered via resync
                                       ///< or failing their checksum
  std::uint64_t quarantined = 0;       ///< client connections closed for
                                       ///< poison
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Opens an in-memory client connection (the SchedulerClient-facing
  /// end is returned). Mirrors SchedulerService::connect().
  PipeEnd connect();

  /// Serves an established client-facing transport (an accepted
  /// socket, a chaos wrapper, ...). The router owns it from here on.
  void adopt(std::unique_ptr<Transport> transport);

  /// Closes every session and backend link, stops the monitor, joins
  /// all threads. Idempotent; the destructor calls it.
  void stop();

  RouterStats stats() const;

  /// Liveness snapshot, indexed by shard.
  std::vector<bool> alive() const;

  /// Marks a shard dead/alive by hand (tests, draining for deploys).
  /// Counted as a rebalance when the flag actually flips. The one place
  /// liveness changes: confirmed deaths and monitor revivals land here
  /// too.
  void set_alive(std::size_t shard, bool alive);

 private:
  struct Session : FrameSession {
    /// Also closes the backends, unblocking a reader parked inside a
    /// forward round trip.
    void close() noexcept override;

    /// Lazily-opened backend link per shard, private to this session.
    std::vector<std::unique_ptr<Transport>> backends;
    std::vector<std::uint64_t> backend_next_id;
  };

  /// One shard's reply to a forwarded request, or why it has none.
  struct ForwardResult {
    bool delivered = false;  ///< a decoded response came back
    ScheduleResponse response;
    codec::Bytes payload;  ///< the reply's raw payload, as the shard sent it
  };

  /// SessionCore handler: replays, decodes and routes one client frame;
  /// anything but a schedule request is refused with a typed kError.
  void on_frame(Session* session, const Frame& frame);
  /// `payload` is the raw encoded request (for the replay byte-cache
  /// and forwarding).
  void handle_request(Session* session, const ScheduleRequest& request,
                      std::span<const std::uint8_t> payload);
  /// Answers a request frame from the replay byte-cache when an
  /// identical payload (modulo request_id) was served inline before.
  /// Returns true when the response went out.
  bool try_replay(Session* session,
                  std::span<const std::uint8_t> payload);
  /// Stores an inline answer's response payload `encoded` under the
  /// request's id-less suffix, hashing the suffix once and evicting the
  /// oldest entry when full. Caller holds no locks.
  void store_replay(std::span<const std::uint8_t> payload,
                    const codec::Bytes& encoded);
  /// Sends the validated request `payload` to `shard` under the link's
  /// next id and blocks for the reply. A wire/decode failure drops the
  /// link (next request reconnects) and counts against the shard's
  /// retry budget.
  ForwardResult forward(Session* session, std::size_t shard,
                        std::span<const std::uint8_t> payload);
  /// Merges the owners' replies per the quorum/backpressure policy and
  /// answers the client: agreeing kOk replies relay the first one's
  /// payload under `request_id`, anything else a typed refusal.
  void merge(Session* session, std::uint64_t request_id,
             std::vector<ForwardResult>& results);
  /// Encodes `response` and hands it to write_response.
  void send_response(Session* session, const ScheduleResponse& response);
  /// Counts a response payload as answered_ok or refused and writes it.
  void write_response(Session* session, bool ok, codec::Bytes payload);

  void note_forward_failure(std::size_t shard);
  void note_forward_success(std::size_t shard);
  void monitor_loop();

  RouterConfig config_;

  mutable std::mutex health_mutex_;
  ShardMap map_;
  std::vector<std::size_t> consecutive_failures_;
  std::vector<std::size_t> probe_attempts_;  ///< per dead shard
  std::condition_variable health_cv_;
  bool stopping_ = false;

  /// One counter per RouterStats field that is not a sum, named after
  /// its metric; stats() reads them back.
  struct Counters {
    obs::InstanceCounter received{"serve.shard.requests"};
    obs::InstanceCounter inline_hits{"serve.shard.inline_hits"};
    obs::InstanceCounter replayed{"serve.shard.replays"};
    obs::InstanceCounter forwarded{"serve.shard.forwarded"};
    obs::InstanceCounter forward_failures{"serve.shard.forward_failures"};
    obs::InstanceCounter answered_ok{"serve.shard.answered_ok"};
    obs::InstanceCounter refused{"serve.shard.refused"};
    obs::InstanceCounter no_owner{"serve.shard.no_owner"};
    obs::InstanceCounter quorum_agreed{"serve.quorum.agreed"};
    obs::InstanceCounter quorum_divergence{"serve.quorum.divergence"};
    obs::InstanceCounter quorum_single{"serve.quorum.single"};
    obs::InstanceCounter shard_deaths{"serve.shard.deaths"};
    obs::InstanceCounter shard_revivals{"serve.shard.revivals"};
  };
  Counters counters_;

  /// The replay tier is on: RouterConfig::replay_cache_capacity > 0 and
  /// the colocated inline path that fills it can run.
  const bool replay_;

  /// Leaf lock: never held together with any other router mutex.
  mutable std::mutex replay_mutex_;
  /// Request payload after the id, oldest first: owns the bytes the
  /// cache's keys view, and gives the FIFO eviction order.
  std::deque<HashedKey> replay_fifo_;
  /// -> response payload encoding. Keyed by the stored hash, so neither
  /// insertion nor eviction reads a key's bytes to hash them.
  std::unordered_map<KeyRef, codec::Bytes, KeyRefHash> replay_cache_;

  std::thread monitor_;
  /// Built from config_; stop() joins its readers, which call back into
  /// everything above, before any of it is torn down.
  SessionCore sessions_;
};

}  // namespace dls::serve
