#include "loadgen.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <latch>
#include <limits>
#include <mutex>
#include <thread>

#include "oracle.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"
#include "stats.hpp"

namespace sb {

namespace ds = dls::serve;

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  d.router.received = a.router.received - b.router.received;
  d.router.inline_hits = a.router.inline_hits - b.router.inline_hits;
  d.router.replayed = a.router.replayed - b.router.replayed;
  d.router.forwarded = a.router.forwarded - b.router.forwarded;
  d.router.answered_ok = a.router.answered_ok - b.router.answered_ok;
  d.router.refused = a.router.refused - b.router.refused;
  d.router.quorum_checked = a.router.quorum_checked - b.router.quorum_checked;
  d.router.quorum_agreed = a.router.quorum_agreed - b.router.quorum_agreed;
  d.router.quorum_divergence =
      a.router.quorum_divergence - b.router.quorum_divergence;
  d.service.received = a.service.received - b.service.received;
  d.service.ok = a.service.ok - b.service.ok;
  d.service.shed = a.service.shed - b.service.shed;
  d.service.expired = a.service.expired - b.service.expired;
  d.service.errors = a.service.errors - b.service.errors;
  d.service.degraded = a.service.degraded - b.service.degraded;
  d.service.batched = a.service.batched - b.service.batched;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_evictions = a.cache_evictions - b.cache_evictions;
  return d;
}

Stack::Stack(const WorkloadSpec& spec) {
  pool_ = std::make_unique<dls::exec::ThreadPool>(spec.pool_workers);
  const std::size_t count = std::max<std::size_t>(spec.shards, 1);
  for (std::size_t i = 0; i < count; ++i) {
    services_.push_back(std::make_unique<ds::SchedulerService>(spec.service, pool_.get()));
  }
  if (spec.shards == 0) return;
  ds::RouterConfig config;
  config.shard_count = spec.shards;
  config.connect = [this](std::size_t shard) -> std::unique_ptr<ds::Transport> {
    return std::make_unique<ds::PipeEnd>(services_[shard]->connect());
  };
  for (const auto& service : services_) config.local.push_back(service.get());
  config.replication = spec.replication;
  config.heartbeat = dls::protocol::HeartbeatConfig{
      /*period=*/0.02, /*timeout=*/0.02, /*retry_budget=*/3,
      /*backoff_factor=*/2.0, /*max_backoff=*/0.5};
  config.probe_dead_shards = true;
  config.forward_timeout_s = 5.0;
  config.degraded_retry_after_us = 2000.0;
  config.poison_budget = 8;
  config.resync_scan_bytes = 65536;
  config.vnodes = 64;
  config.replay_cache_capacity = spec.replay_cache_capacity;
  router_ = std::make_unique<ds::ShardRouter>(std::move(config));
}

Stack::~Stack() {
  if (router_) router_->stop();
  router_.reset();
  for (const auto& service : services_) service->stop();
}

std::unique_ptr<ds::Transport> Stack::connect() {
  if (router_) return std::make_unique<ds::PipeEnd>(router_->connect());
  return std::make_unique<ds::PipeEnd>(services_[0]->connect());
}

Counters Stack::counters() const {
  Counters c;
  if (router_) c.router = router_->stats();
  for (const auto& service : services_) {
    const ds::ServiceStats s = service->stats();
    c.service.received += s.received;
    c.service.ok += s.ok;
    c.service.shed += s.shed;
    c.service.expired += s.expired;
    c.service.errors += s.errors;
    c.service.degraded += s.degraded;
    c.service.batched += s.batched;
    c.cache_hits += service->cache().hits();
    c.cache_misses += service->cache().misses();
    c.cache_evictions += service->cache().evictions();
  }
  return c;
}

void Tally::add(const Tally& other) {
  sent += other.sent;
  ok += other.ok;
  shed += other.shed;
  expired += other.expired;
  error += other.error;
  degraded += other.degraded;
  lost += other.lost;
  mismatched += other.mismatched;
}

namespace {

/// The payload length a response frame header announces.
std::size_t payload_length(const std::vector<std::uint8_t>& header) {
  const std::uint32_t length = static_cast<std::uint32_t>(header[6]) |
                               static_cast<std::uint32_t>(header[7]) << 8 |
                               static_cast<std::uint32_t>(header[8]) << 16 |
                               static_cast<std::uint32_t>(header[9]) << 24;
  if (length > ds::kMaxFramePayload) {
    throw dls::codec::DecodeError("response frame too long");
  }
  return length;
}

/// Reads one response frame into `body`; false on EOF. Throws
/// TransportError / codec::DecodeError on a broken stream, and
/// TransportTimeout when no answer starts within 10 s, so a request the
/// program never answers is counted lost instead of hanging the run.
bool read_response(ds::Transport& conn, std::vector<std::uint8_t>& header,
                   std::vector<std::uint8_t>& body) {
  header.resize(ds::kFrameHeaderSize);
  const ds::ReadOutcome got = conn.read_partial(header, 10.0);
  if (got.closed && got.received == 0) return false;
  if (!got.complete) {
    if (got.closed) throw ds::TransportError("connection closed inside a header");
    throw ds::TransportTimeout("no answer within 10 s");
  }
  body.resize(payload_length(header));
  if (!conn.read_exact(body)) {
    throw ds::TransportError("connection closed inside a response");
  }
  return true;
}

}  // namespace

LoadGen::LoadGen(const Inputs& inputs, std::size_t arena_records)
    : inputs_(inputs), arena_(arena_records) {}

std::uint64_t LoadGen::request_id(std::size_t slot) const {
  return (static_cast<std::uint64_t>(epoch_) << 32) | slot;
}

std::size_t LoadGen::slot_of(std::uint64_t id) const {
  if ((id >> 32) != epoch_) return std::numeric_limits<std::size_t>::max();
  const std::size_t slot = id & 0xFFFFFFFFu;
  return slot < arena_.size() ? slot : std::numeric_limits<std::size_t>::max();
}

namespace {

/// Per-connection receive state shared by both loops.
struct Receiver {
  std::vector<std::uint8_t> header;
  std::vector<std::uint8_t> body;
};

}  // namespace

PhaseResult LoadGen::closed(const std::vector<ds::Transport*>& conns,
                            std::size_t depth, double seconds,
                            std::size_t budget) {
  ++epoch_;
  const std::size_t clients = conns.size();
  const std::size_t per = arena_.size() / clients;
  std::vector<std::size_t> used(clients, 0);
  std::vector<std::int64_t> last_recv(clients, 0);
  std::atomic<std::int64_t> remaining{budget > 0 ? static_cast<std::int64_t>(budget)
                                                 : std::numeric_limits<std::int64_t>::max()};
  std::mutex cpu_mutex;
  double generator_cpu = 0.0;
  std::latch start(static_cast<std::ptrdiff_t>(clients) + 1);
  std::int64_t t0 = 0;
  std::int64_t deadline = 0;

  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      ds::Transport& conn = *conns[c];
      const std::size_t base = c * per;
      Receiver rx;
      std::vector<std::uint8_t> frame;
      std::size_t next = 0;
      std::size_t in_flight = 0;
      const auto send_one = [&]() -> bool {
        if (next >= per) return false;
        if (remaining.fetch_sub(1, std::memory_order_relaxed) <= 0) return false;
        const std::uint32_t index =
            inputs_.sequence[cursor_.fetch_add(1, std::memory_order_relaxed) %
                             inputs_.sequence.size()];
        const PoolEntry& entry = inputs_.pool[index];
        frame.assign(entry.frame.begin(), entry.frame.end());
        stamp_request_id(frame, entry.multi, request_id(base + next));
        Record& record = arena_[base + next];
        record = Record{};
        record.pool = index;
        ++next;
        record.due_ns = now_ns();
        conn.write(frame);
        ++in_flight;
        return true;
      };
      start.arrive_and_wait();
      const double cpu0 = thread_cpu_s();
      try {
        bool sending = true;
        while (sending && in_flight < depth) sending = send_one();
        while (in_flight > 0) {
          if (!read_response(conn, rx.header, rx.body)) break;
          const std::int64_t t = now_ns();
          const ParsedResponse parsed = parse_response(
              static_cast<ds::FrameType>(rx.header[5]), rx.body);
          const std::size_t slot = slot_of(parsed.id);
          if (slot == std::numeric_limits<std::size_t>::max()) continue;
          Record& record = arena_[slot];
          record.recv_ns = t;
          record.status = static_cast<std::uint8_t>(parsed.status);
          record.fingerprint = parsed.fingerprint;
          record.answered = true;
          last_recv[c] = t;
          --in_flight;
          if (sending && t < deadline) {
            sending = send_one();
          } else {
            sending = false;
          }
        }
      } catch (const std::exception&) {
        // A broken connection: whatever is still in flight is lost.
      }
      used[c] = next;
      const double cpu = thread_cpu_s() - cpu0;
      std::lock_guard<std::mutex> lock(cpu_mutex);
      generator_cpu += cpu;
    });
  }
  const double cpu0 = process_cpu_s();
  t0 = now_ns();
  deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  start.arrive_and_wait();
  for (std::thread& t : crew) t.join();
  const double cpu1 = process_cpu_s();

  PhaseResult result;
  const std::int64_t t1 = *std::max_element(last_recv.begin(), last_recv.end());
  result.wall_s = static_cast<double>(std::max<std::int64_t>(t1 - t0, 1)) * 1e-9;
  result.process_cpu_s = cpu1 - cpu0;
  result.generator_cpu_s = generator_cpu;
  result.class_latency_us.resize(inputs_.class_names.size());
  for (std::size_t c = 0; c < clients; ++c) settle(c * per, c * per + used[c], t0, result);
  return result;
}

PhaseResult LoadGen::open(const std::vector<ds::Transport*>& conns,
                          double rate, double seconds, std::uint64_t seed,
                          std::size_t abort_backlog) {
  constexpr double kDrainS = 5.0;
  ++epoch_;
  // The schedule is generated before the clock starts.
  std::vector<std::int64_t> offsets;
  {
    Rng rng(seed);
    double t = rng.exponential(rate);
    while (t < seconds && offsets.size() < arena_.size()) {
      offsets.push_back(static_cast<std::int64_t>(t * 1e9));
      t += rng.exponential(rate);
    }
  }
  const std::size_t clients = conns.size();
  const std::size_t total = offsets.size();
  std::vector<std::atomic<std::uint64_t>> sent_on(clients);
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> drain_deadline{std::numeric_limits<std::int64_t>::max()};
  std::mutex cpu_mutex;
  double generator_cpu = 0.0;
  std::size_t sent = 0;
  std::vector<double> lag_us;
  lag_us.reserve(total);
  double backlog[4] = {0.0, 0.0, 0.0, 0.0};
  bool aborted = false;
  std::latch start(static_cast<std::ptrdiff_t>(clients) + 2);
  std::int64_t t0 = 0;

  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      ds::Transport& conn = *conns[c];
      Receiver rx;
      rx.header.resize(ds::kFrameHeaderSize);
      std::uint64_t got = 0;
      start.arrive_and_wait();
      const double cpu0 = thread_cpu_s();
      try {
        for (;;) {
          if (done.load() && got >= sent_on[c].load()) break;
          if (now_ns() > drain_deadline.load()) break;
          const ds::ReadOutcome outcome = conn.read_partial(rx.header, 0.02);
          if (outcome.closed) break;
          if (!outcome.complete) continue;
          rx.body.resize(payload_length(rx.header));
          if (!conn.read_exact(rx.body)) break;
          const std::int64_t t = now_ns();
          const ParsedResponse parsed = parse_response(
              static_cast<ds::FrameType>(rx.header[5]), rx.body);
          const std::size_t slot = slot_of(parsed.id);
          if (slot == std::numeric_limits<std::size_t>::max()) continue;
          Record& record = arena_[slot];
          record.recv_ns = t;
          record.status = static_cast<std::uint8_t>(parsed.status);
          record.fingerprint = parsed.fingerprint;
          record.answered = true;
          ++got;
          received.fetch_add(1);
        }
      } catch (const std::exception&) {
        // A broken connection: the rest of its requests are lost.
      }
      const double cpu = thread_cpu_s() - cpu0;
      std::lock_guard<std::mutex> lock(cpu_mutex);
      generator_cpu += cpu;
    });
  }
  crew.emplace_back([&] {
    std::vector<std::uint8_t> frame;
    start.arrive_and_wait();
    const double cpu0 = thread_cpu_s();
    const std::int64_t quarter = static_cast<std::int64_t>(seconds * 0.25e9);
    std::size_t samples = 0;
    try {
      for (std::size_t k = 0; k < total; ++k) {
        const std::int64_t due = t0 + offsets[k];
        while (samples < 3 &&
               offsets[k] >= static_cast<std::int64_t>(samples + 1) * quarter) {
          backlog[samples++] = static_cast<double>(sent - received.load());
        }
        if (sent - received.load() > abort_backlog) {
          aborted = true;
          break;
        }
        const std::uint32_t index =
            inputs_.sequence[cursor_.fetch_add(1, std::memory_order_relaxed) %
                             inputs_.sequence.size()];
        const PoolEntry& entry = inputs_.pool[index];
        frame.assign(entry.frame.begin(), entry.frame.end());
        stamp_request_id(frame, entry.multi, request_id(k));
        Record& record = arena_[k];
        record = Record{};
        record.pool = index;
        record.due_ns = due;
        std::int64_t now = now_ns();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = now_ns();
        }
        lag_us.push_back(static_cast<double>(now - due) * 1e-3);
        const std::size_t c = k % clients;
        sent_on[c].fetch_add(1);
        ++sent;
        conns[c]->write(frame);
      }
    } catch (const std::exception&) {
      // The connection broke; the receivers account for what is lost.
    }
    while (samples < 3) backlog[samples++] = static_cast<double>(sent - received.load());
    backlog[3] = static_cast<double>(sent - received.load());
    drain_deadline.store(now_ns() + static_cast<std::int64_t>(kDrainS * 1e9));
    done.store(true);
    const double cpu = thread_cpu_s() - cpu0;
    std::lock_guard<std::mutex> lock(cpu_mutex);
    generator_cpu += cpu;
  });
  const double cpu0 = process_cpu_s();
  t0 = now_ns() + 1000000;  // 1 ms for the crew to reach the start line
  start.arrive_and_wait();
  for (std::thread& t : crew) t.join();
  const double cpu1 = process_cpu_s();

  PhaseResult result;
  result.wall_s = seconds;
  result.process_cpu_s = cpu1 - cpu0;
  result.generator_cpu_s = generator_cpu;
  result.class_latency_us.resize(inputs_.class_names.size());
  result.lag_us = std::move(lag_us);
  std::copy(std::begin(backlog), std::end(backlog), std::begin(result.backlog));
  result.aborted = aborted;
  settle(0, sent, t0, result);
  return result;
}

void LoadGen::settle(std::size_t begin, std::size_t end, std::int64_t t0,
                     PhaseResult& result) const {
  Tally& tally = result.tally;
  for (std::size_t slot = begin; slot < end; ++slot) {
    const Record& record = arena_[slot];
    const double at_s = static_cast<double>(record.due_ns - t0) * 1e-9;
    ++tally.sent;
    const auto status = static_cast<ds::ScheduleStatus>(record.status);
    if (record.answered && status == ds::ScheduleStatus::kOk) {
      const PoolEntry& entry = inputs_.pool[record.pool];
      if (record.fingerprint == entry.expect) {
        ++tally.ok;
        const double us = static_cast<double>(record.recv_ns - record.due_ns) * 1e-3;
        result.latency_us.push_back(us);
        result.ok_at_s.push_back(at_s);
        result.class_latency_us[entry.cls].push_back(us);
        continue;
      }
      ++tally.mismatched;
    } else if (!record.answered) {
      ++tally.lost;
    } else if (status == ds::ScheduleStatus::kShed) {
      ++tally.shed;
    } else if (status == ds::ScheduleStatus::kExpired) {
      ++tally.expired;
    } else if (status == ds::ScheduleStatus::kDegraded) {
      ++tally.degraded;
    } else {
      ++tally.error;
    }
    result.miss_at_s.push_back(at_s);
  }
}

}  // namespace sb
