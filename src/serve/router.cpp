#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "serve/frame.hpp"
#include "serve/service_wire.hpp"

namespace dls::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds_of(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

ShardRouter::ShardRouter(RouterConfig config)
    : config_(std::move(config)),
      map_(config_.shard_count, ShardMapConfig{config_.vnodes}),
      consecutive_failures_(config_.shard_count, 0),
      probe_attempts_(config_.shard_count, 0),
      replay_(config_.replay_cache_capacity > 0 &&
              config_.replication == 1 && !config_.local.empty()),
      sessions_(config_.poison_budget, config_.resync_scan_bytes,
                [this](FrameSession& session, const Frame& frame) {
                  on_frame(static_cast<Session*>(&session), frame);
                }) {
  DLS_REQUIRE(config_.shard_count >= 1, "router needs at least one shard");
  DLS_REQUIRE(config_.connect != nullptr,
              "router needs a shard connect factory");
  DLS_REQUIRE(config_.replication >= 1, "replication must be at least 1");
  DLS_REQUIRE(
      config_.local.empty() || config_.local.size() == config_.shard_count,
      "RouterConfig::local must be empty or one entry per shard");
  if (config_.probe_dead_shards) {
    monitor_ = std::thread([this] { monitor_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

PipeEnd ShardRouter::connect() {
  Pipe pipe = make_pipe();
  adopt(std::make_unique<PipeEnd>(std::move(pipe.a)));
  return std::move(pipe.b);
}

void ShardRouter::adopt(std::unique_ptr<Transport> transport) {
  auto session = std::make_unique<Session>();
  session->end = std::move(transport);
  session->backends.resize(config_.shard_count);
  session->backend_next_id.assign(config_.shard_count, 1);
  sessions_.adopt(std::move(session));
  DLS_COUNT("serve.shard.router_sessions");
}

void ShardRouter::Session::close() noexcept {
  FrameSession::close();
  for (auto& backend : backends) {
    if (backend) backend->close();
  }
}

void ShardRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  sessions_.stop();
}

RouterStats ShardRouter::stats() const {
  const Counters& c = counters_;
  RouterStats stats;
  stats.received = c.received.value();
  stats.inline_hits = c.inline_hits.value();
  stats.replayed = c.replayed.value();
  stats.forwarded = c.forwarded.value();
  stats.forward_failures = c.forward_failures.value();
  stats.answered_ok = c.answered_ok.value();
  stats.refused = c.refused.value();
  stats.no_owner = c.no_owner.value();
  stats.quorum_agreed = c.quorum_agreed.value();
  stats.quorum_divergence = c.quorum_divergence.value();
  stats.quorum_checked = stats.quorum_agreed + stats.quorum_divergence;
  stats.quorum_single = c.quorum_single.value();
  stats.shard_deaths = c.shard_deaths.value();
  stats.shard_revivals = c.shard_revivals.value();
  stats.rebalances = stats.shard_deaths + stats.shard_revivals;
  stats.poison_frames = sessions_.poison_frames();
  stats.quarantined = sessions_.quarantined();
  return stats;
}

std::vector<bool> ShardRouter::alive() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<bool> flags(map_.shard_count());
  for (std::size_t shard = 0; shard < flags.size(); ++shard) {
    flags[shard] = map_.alive(shard);
  }
  return flags;
}

void ShardRouter::set_alive(std::size_t shard, bool alive) {
  bool flipped = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    flipped = map_.set_alive(shard, alive);
    if (flipped) {
      consecutive_failures_[shard] = 0;
      probe_attempts_[shard] = 0;
    }
  }
  if (!flipped) return;
  (alive ? counters_.shard_revivals : counters_.shard_deaths).add();
  health_cv_.notify_all();
}

void ShardRouter::on_frame(Session* session, const Frame& frame) {
  if (frame.type != FrameType::kScheduleRequest) {
    ScheduleResponse refusal;
    refusal.status = ScheduleStatus::kError;
    refusal.error = "unexpected frame type '" + to_string(frame.type) +
                    "' (expected schedule_request)";
    send_response(session, refusal);
    return;
  }
  // Replay fast path: a payload byte-identical (modulo id) to one
  // already answered inline replays the cached encoding before any
  // decode work happens.
  if (replay_ && try_replay(session, frame.payload)) return;
  ScheduleRequest request;
  try {
    request = decode_schedule_request(frame.payload);
  } catch (const codec::DecodeError& e) {
    ScheduleResponse refusal;
    refusal.status = ScheduleStatus::kError;
    refusal.error = e.what();
    send_response(session, refusal);
    return;
  }
  counters_.received.add();
  handle_request(session, request, frame.payload);
}

bool ShardRouter::try_replay(Session* session,
                             std::span<const std::uint8_t> payload) {
  const std::span<const std::uint8_t> suffix =
      schedule_request_replay_key(payload);
  if (suffix.empty()) return false;
  const KeyRef key(suffix, topology_key_hash(suffix));
  codec::Bytes encoded;
  {
    std::lock_guard<std::mutex> lock(replay_mutex_);
    const auto it = replay_cache_.find(key);
    if (it == replay_cache_.end()) return false;
    encoded = it->second;
  }
  counters_.received.add();
  counters_.replayed.add();
  // The cached answer is a pure function of the bytes after the id, so
  // only the echoed id differs between repeats, a same-id retry included.
  patch_schedule_response_id(encoded, schedule_request_id(payload));
  write_response(session, /*ok=*/true, std::move(encoded));
  return true;
}

void ShardRouter::store_replay(std::span<const std::uint8_t> payload,
                               const codec::Bytes& encoded) {
  const std::span<const std::uint8_t> suffix =
      schedule_request_replay_key(payload);
  if (suffix.empty()) return;
  HashedKey key(codec::Bytes(suffix.begin(), suffix.end()));
  std::lock_guard<std::mutex> lock(replay_mutex_);
  if (replay_cache_.contains(key)) return;
  if (replay_fifo_.size() >= config_.replay_cache_capacity) {
    replay_cache_.erase(replay_fifo_.front());
    replay_fifo_.pop_front();
  }
  replay_fifo_.push_back(std::move(key));
  replay_cache_.emplace(replay_fifo_.back(), encoded);
}

void ShardRouter::handle_request(Session* session,
                                 const ScheduleRequest& request,
                                 std::span<const std::uint8_t> payload) {
  // Malformed instances key like any other, so they still get a
  // deterministic owner, whose solver answers with the canonical kError
  // text.
  // Keyed and hashed once: the hash places the key on the ring and
  // indexes the colocated cache probe below.
  const HashedKey key = canonical_topology_key(request.w, request.z);
  std::vector<std::size_t> owners;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    owners = map_.owners(key, config_.replication);
  }
  if (owners.empty()) {
    ScheduleResponse refusal;
    refusal.request_id = request.request_id;
    refusal.status = ScheduleStatus::kDegraded;
    refusal.error = "no alive shard owns this key";
    refusal.retry_after_us = config_.degraded_retry_after_us;
    counters_.no_owner.add();
    send_response(session, refusal);
    return;
  }
  // Colocated fast path: with no replication to cross-check, a
  // payment-free cache hit on the primary's in-process service skips
  // the wire, the admission queue and the dispatcher entirely.
  if (config_.replication == 1 && !config_.local.empty()) {
    SchedulerService* local = config_.local[owners[0]];
    ScheduleResponse response;
    if (local != nullptr &&
        local->try_serve_inline(request, key, response)) {
      counters_.inline_hits.add();
      // Encode once: the payload answers this client AND seeds the
      // replay byte-cache, so the next identical request skips decode
      // and encode entirely. Only inline answers (payment-free,
      // deadline-free cache hits) ever populate it, which keeps replays
      // safe.
      codec::Bytes encoded = encode_schedule_response(response);
      if (replay_) store_replay(payload, encoded);
      write_response(session, /*ok=*/true, std::move(encoded));
      return;
    }
  }
  // Forwards patch the per-link id in at the canonical offset. A client
  // payload that decoded but encodes its magic non-canonically (an
  // overlong length varint) puts the id elsewhere, so it is re-encoded
  // once instead.
  codec::Bytes canonical;
  if (!has_canonical_request_id(payload)) {
    canonical = encode_schedule_request(request);
    payload = canonical;
  }
  std::vector<ForwardResult> results;
  results.reserve(owners.size());
  for (const std::size_t shard : owners) {
    results.push_back(forward(session, shard, payload));
  }
  merge(session, request.request_id, results);
}

ShardRouter::ForwardResult ShardRouter::forward(
    Session* session, std::size_t shard,
    std::span<const std::uint8_t> payload) {
  ForwardResult result;
  Transport* link = session->backends[shard].get();
  if (link == nullptr || !link->valid()) {
    try {
      session->backends[shard] = config_.connect(shard);
      link = session->backends[shard].get();
    } catch (const dls::Error&) {
      link = nullptr;
    }
    if (link == nullptr) {
      note_forward_failure(shard);
      return result;
    }
  }
  const std::uint64_t link_id = session->backend_next_id[shard]++;
  counters_.forwarded.add();
  try {
    // The client's payload already decoded and validated; only the
    // per-link id differs, so patch it rather than re-encode.
    Frame frame;
    frame.type = FrameType::kScheduleRequest;
    frame.payload.assign(payload.begin(), payload.end());
    patch_schedule_request_id(frame.payload, link_id);
    write_frame(*link, frame);
    // Bounded skip of stale responses (a chaos-duplicated frame from an
    // earlier round trip on this link).
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::optional<Frame> reply =
          read_frame(*link, config_.forward_timeout_s);
      if (!reply) break;  // shard hung up
      if (reply->type != FrameType::kScheduleResponse) continue;
      ScheduleResponse response = decode_schedule_response(reply->payload);
      if (response.request_id != link_id) continue;  // stale
      result.delivered = true;
      result.response = std::move(response);
      result.payload = std::move(reply->payload);
      note_forward_success(shard);
      return result;
    }
  } catch (const TransportError&) {
  } catch (const codec::DecodeError&) {
  }
  // Wire trouble: drop the link so the next request redials, and count
  // the failure against the shard's heartbeat retry budget.
  session->backends[shard]->close();
  session->backends[shard].reset();
  note_forward_failure(shard);
  return result;
}

void ShardRouter::merge(Session* session, std::uint64_t request_id,
                        std::vector<ForwardResult>& results) {
  std::vector<ForwardResult*> ok;
  for (ForwardResult& result : results) {
    if (result.delivered && result.response.status == ScheduleStatus::kOk) {
      ok.push_back(&result);
    }
  }
  if (!ok.empty()) {
    if (ok.size() >= 2) {
      bool diverged = false;
      for (std::size_t i = 1; i < ok.size(); ++i) {
        if (!same_schedule_answer(ok[0]->payload, ok[i]->payload)) {
          diverged = true;
          break;
        }
      }
      if (diverged) {
        // A typed incident, never a silently-chosen answer: replicas
        // disagreeing on a deterministic solve means corruption or a
        // miscomputing shard — the distributed twin of the src/check/
        // contract auditors.
        counters_.quorum_divergence.add();
        ScheduleResponse incident;
        incident.request_id = request_id;
        incident.status = ScheduleStatus::kError;
        incident.error = "quorum divergence: " + std::to_string(ok.size()) +
                         " replicas returned non-identical solutions";
        send_response(session, incident);
        return;
      }
      counters_.quorum_agreed.add();
    } else {
      counters_.quorum_single.add();
    }
    // Relay the first replica's own bytes under the client's id. A
    // lone kOk reply that encodes its magic non-canonically has no id
    // at the patch offset (two or more such replies diverge above), so
    // it is re-encoded from its decoded form instead.
    ForwardResult& chosen = *ok[0];
    if (!has_canonical_response_id(chosen.payload)) {
      chosen.response.request_id = request_id;
      send_response(session, chosen.response);
      return;
    }
    patch_schedule_response_id(chosen.payload, request_id);
    write_response(session, /*ok=*/true, std::move(chosen.payload));
    return;
  }
  // No solution landed: merge the backpressure. The largest retry-after
  // hint wins so the client backs off for the slowest replica.
  const ScheduleResponse* degraded = nullptr;
  const ScheduleResponse* shed = nullptr;
  const ScheduleResponse* error = nullptr;
  for (const ForwardResult& result : results) {
    if (!result.delivered) continue;
    const ScheduleResponse& r = result.response;
    if (r.status == ScheduleStatus::kDegraded &&
        (degraded == nullptr ||
         r.retry_after_us > degraded->retry_after_us)) {
      degraded = &r;
    } else if (r.status == ScheduleStatus::kShed && shed == nullptr) {
      shed = &r;
    } else if (error == nullptr) {
      error = &r;
    }
  }
  ScheduleResponse merged;
  if (degraded != nullptr) {
    merged = *degraded;
  } else if (shed != nullptr) {
    merged = *shed;
  } else if (error != nullptr) {
    merged = *error;
  } else {
    merged.status = ScheduleStatus::kDegraded;
    merged.error = "no owning shard reachable";
    merged.retry_after_us = config_.degraded_retry_after_us;
    DLS_COUNT("serve.shard.unreachable");
  }
  merged.request_id = request_id;
  send_response(session, merged);
}

void ShardRouter::send_response(Session* session,
                                const ScheduleResponse& response) {
  write_response(session, response.status == ScheduleStatus::kOk,
                 encode_schedule_response(response));
}

void ShardRouter::write_response(Session* session, bool ok,
                                 codec::Bytes payload) {
  (ok ? counters_.answered_ok : counters_.refused).add();
  try {
    write_frame(*session->end,
                Frame{FrameType::kScheduleResponse, std::move(payload)});
  } catch (const TransportError&) {
    // The client hung up before its answer landed; nothing to do.
  }
}

void ShardRouter::note_forward_failure(std::size_t shard) {
  counters_.forward_failures.add();
  bool exhausted = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    exhausted =
        ++consecutive_failures_[shard] >= config_.heartbeat.retry_budget;
  }
  // Confirmed dead; set_alive wakes the monitor to start probing.
  if (exhausted) set_alive(shard, false);
}

void ShardRouter::note_forward_success(std::size_t shard) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  consecutive_failures_[shard] = 0;
}

void ShardRouter::monitor_loop() {
  std::vector<Clock::time_point> next_probe(config_.shard_count,
                                            Clock::now());
  for (;;) {
    std::vector<std::size_t> dead;
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(lock, seconds_of(config_.heartbeat.period),
                          [this] { return stopping_; });
      if (stopping_) return;
      for (std::size_t shard = 0; shard < map_.shard_count(); ++shard) {
        if (!map_.alive(shard) && Clock::now() >= next_probe[shard]) {
          dead.push_back(shard);
        }
      }
    }
    for (const std::size_t shard : dead) {
      // The probe is a bare redial outside the health lock: a shard
      // that accepts a connection again is ready for traffic.
      bool revived = false;
      try {
        const std::unique_ptr<Transport> probe = config_.connect(shard);
        revived = probe != nullptr && probe->valid();
        if (probe) probe->close();
      } catch (const dls::Error&) {
        revived = false;
      }
      if (revived) {
        set_alive(shard, true);
        continue;
      }
      std::size_t attempt = 0;
      {
        std::lock_guard<std::mutex> lock(health_mutex_);
        attempt = ++probe_attempts_[shard];
      }
      DLS_COUNT("serve.shard.probes");
      // Same backoff arithmetic the crash monitor uses, so probe
      // cadence is bit-identical for the same knobs.
      const double wait = protocol::exponential_backoff(
          config_.heartbeat.period, config_.heartbeat.backoff_factor,
          attempt, config_.heartbeat.max_backoff);
      next_probe[shard] = Clock::now() + seconds_of(wait);
    }
  }
}

}  // namespace dls::serve
