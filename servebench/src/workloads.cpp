#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "oracle.hpp"
#include "stats.hpp"

namespace sb {

namespace ds = dls::serve;

namespace {

/// Every config value spelled out: the workloads must not drift when a
/// library default changes.
ds::ServiceConfig service_config(std::size_t queue_capacity,
                                 std::size_t cache_capacity) {
  ds::ServiceConfig config;
  config.queue_capacity = queue_capacity;
  config.max_batch = 8;
  config.batch_min_lanes = 2;
  config.cache_capacity = cache_capacity;
  config.default_deadline_us = 0.0;
  config.mechanism = dls::core::MechanismConfig{};
  config.start_paused = false;
  config.brownout_watermark = 0;
  config.degraded_retry_after_us = 1000.0;
  config.poison_budget = 8;
  config.resync_scan_bytes = 65536;
  return config;
}

/// 33 rates rising by 5% from `first` (a factor of 4.8 in all), rounded
/// to whole req/s: a flip between neighbouring rungs moves goodput by at
/// most 5%.
std::vector<double> geometric_ladder(double first) {
  std::vector<double> rates;
  double rate = first;
  for (int i = 0; i < 33; ++i, rate *= 1.05) rates.push_back(std::round(rate));
  return rates;
}

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;
  {
    // The federation on the solve path: every request misses every
    // cache, so framing of 4-32 KB payloads, forwarding to R=2 owners,
    // the quorum compare, the solver and the payments do the work.
    WorkloadSpec spec;
    spec.name = "fed_cold_r2";
    spec.shards = 3;
    spec.replication = 2;
    spec.replay_cache_capacity = 128;
    spec.service = service_config(64, 128);
    spec.pool_workers = 3;
    spec.depth = 2;
    spec.warmup_requests = 48;
    spec.fill_requests = 2048;  // one cycle of the pool
    spec.ladder_rps = geometric_ladder(800.0);
    spec.latency_limit_ms = 100.0;
    specs.push_back(spec);
  }
  {
    // The federation's cache tiers: Zipf keys, payment-free, so the
    // router's replay and inline paths and the shard caches answer most
    // requests and the solver does little.
    WorkloadSpec spec;
    spec.name = "fed_warm_zipf";
    spec.shards = 3;
    spec.replication = 1;
    spec.replay_cache_capacity = 128;
    spec.service = service_config(64, 256);
    spec.pool_workers = 3;
    spec.depth = 4;
    spec.warmup_requests = 3000;
    spec.fill_requests = 20000;
    spec.ladder_rps = geometric_ladder(18000.0);
    spec.latency_limit_ms = 25.0;
    specs.push_back(spec);
  }
  {
    // One bare service, multi-load batches and cheap cache hits (3:2)
    // sharing one admission queue; the router is bypassed.
    WorkloadSpec spec;
    spec.name = "multiload_mix";
    spec.shards = 0;
    spec.service = service_config(64, 256);
    // The dispatcher plus one pool worker solve, next to the two
    // closed-loop client threads: four busy threads on four CPUs.
    spec.pool_workers = 1;
    spec.depth = 8;
    spec.warmup_requests = 256;
    spec.fill_requests = 10000;
    spec.ladder_rps = geometric_ladder(5000.0);
    spec.latency_limit_ms = 25.0;
    specs.push_back(spec);
  }
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = make_specs();
  return all;
}

ds::ScheduleRequest random_chain(Rng& rng, std::size_t processors) {
  ds::ScheduleRequest request;
  request.w.resize(processors);
  request.z.resize(processors - 1);
  for (double& x : request.w) x = rng.uniform(0.5, 5.0);
  for (double& x : request.z) x = rng.uniform(0.05, 0.5);
  return request;
}

void add_single(Inputs& inputs, ds::ScheduleRequest request, std::uint8_t cls,
                const WorkloadSpec& spec) {
  PoolEntry entry;
  entry.frame = encode_request_frame(request);
  entry.cls = cls;
  entry.source = static_cast<std::uint32_t>(inputs.singles.size());
  entry.expect =
      fingerprint(expected_response(request, spec.service.mechanism));
  inputs.pool.push_back(std::move(entry));
  inputs.singles.push_back(std::move(request));
}

void add_multi(Inputs& inputs, ds::MultiScheduleRequest request,
               std::uint8_t cls, const WorkloadSpec& spec) {
  PoolEntry entry;
  entry.frame = encode_request_frame(request);
  entry.multi = true;
  entry.cls = cls;
  entry.source = static_cast<std::uint32_t>(inputs.multis.size());
  entry.expect =
      fingerprint(expected_response(request, spec.service.mechanism));
  inputs.pool.push_back(std::move(entry));
  inputs.multis.push_back(std::move(request));
}

/// fed_cold_r2: chains of 256 or 2048 processors (2:3), half with payments,
/// in a pool larger than 5x the federation's total cache capacity and
/// replayed in one fixed cycle, so no key recurs while still cached.
void make_cold(Inputs& inputs, const WorkloadSpec& spec, Rng& rng,
               std::size_t length) {
  inputs.class_names = {"m256", "m256.pay", "m2048", "m2048.pay"};
  const std::size_t capacity = spec.shards * spec.service.cache_capacity;
  const std::size_t pool = std::max<std::size_t>(2048, 5 * capacity + 1);
  for (std::size_t i = 0; i < pool; ++i) {
    // Three in five chains are long, so the unloaded p50 falls inside
    // the 2048-processor latency mode instead of on the gap between
    // the two modes, where it swung by +-15% between one-second windows.
    const bool big = i % 5 >= 2;
    const bool pay = (i / 5) % 2 == 1;
    ds::ScheduleRequest request = random_chain(rng, big ? 2048 : 256);
    request.options.want_payments = pay;
    add_single(inputs, std::move(request),
               static_cast<std::uint8_t>((big ? 2 : 0) + (pay ? 1 : 0)), spec);
  }
  std::vector<std::uint32_t> cycle(pool);
  for (std::size_t i = 0; i < pool; ++i) cycle[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(cycle);
  inputs.sequence.resize(length);
  for (std::size_t i = 0; i < length; ++i) inputs.sequence[i] = cycle[i % pool];
}

/// fed_warm_zipf: Zipf(1.1) over 20,000 payment-free chains of 32-128
/// processors; popularity rank is shuffled onto topologies so the hot
/// keys spread over the shards.
void make_zipf(Inputs& inputs, const WorkloadSpec& spec, Rng& rng,
               std::size_t length) {
  constexpr std::size_t kTopologies = 20000;
  inputs.class_names = {"single"};
  for (std::size_t i = 0; i < kTopologies; ++i) {
    add_single(inputs,
               random_chain(rng, static_cast<std::size_t>(rng.between(32, 128))),
               0, spec);
  }
  std::vector<std::uint32_t> by_rank(kTopologies);
  for (std::size_t i = 0; i < kTopologies; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(by_rank);
  const ZipfSampler zipf(kTopologies, 1.1);
  inputs.sequence.resize(length);
  for (std::uint32_t& slot : inputs.sequence) slot = by_rank[zipf(rng)];
}

/// multiload_mix: three in five requests are multi-load batches (4-16
/// loads, 1-4 installments, FIFO or interleaved, staged over an ingress
/// link, releases spread, half with payments), the rest payment-free
/// requests over a 64-chain hot set that the warm-up pass puts in the
/// cache. At an even split the unloaded p50 sat on the gap between the
/// cheap-hit and the multi-load latency modes.
void make_multiload(Inputs& inputs, const WorkloadSpec& spec, Rng& rng,
                    std::size_t length) {
  constexpr std::size_t kHot = 64;
  constexpr std::size_t kBatches = 512;
  inputs.class_names = {"single", "multi"};
  for (std::size_t i = 0; i < kHot; ++i) {
    add_single(inputs,
               random_chain(rng, static_cast<std::size_t>(rng.between(64, 256))),
               0, spec);
  }
  for (std::size_t i = 0; i < kBatches; ++i) {
    const ds::ScheduleRequest chain =
        random_chain(rng, static_cast<std::size_t>(rng.between(64, 256)));
    ds::MultiScheduleRequest request;
    request.w = chain.w;
    request.z = chain.z;
    request.policy = static_cast<std::uint8_t>(rng.coin() ? 1 : 0);
    request.installments = static_cast<std::uint32_t>(rng.between(1, 4));
    request.ingress_z = rng.uniform(0.05, 0.5);
    request.want_payments = rng.coin();
    const auto loads = static_cast<std::size_t>(rng.between(4, 16));
    double release = 0.0;
    for (std::size_t k = 0; k < loads; ++k) {
      ds::MultiLoadItem item;
      item.load_id = k + 1;
      item.size = rng.uniform(0.5, 2.0);
      item.release = release;
      release += rng.uniform(0.0, 2.0);
      request.loads.push_back(item);
    }
    add_multi(inputs, std::move(request), 1, spec);
  }
  inputs.sequence.resize(length);
  // The warm-up pass walks the first entries of the sequence: lead with
  // every hot chain once so set-up leaves them all cached.
  for (std::size_t i = 0; i < length; ++i) {
    if (i < kHot) {
      inputs.sequence[i] = static_cast<std::uint32_t>(i);
    } else if (rng.uniform01() < 0.4) {
      inputs.sequence[i] = static_cast<std::uint32_t>(rng.between(0, kHot - 1));
    } else {
      inputs.sequence[i] =
          static_cast<std::uint32_t>(kHot + rng.between(0, kBatches - 1));
    }
  }
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs()) names.push_back(spec.name);
  return names;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t sequence_length) {
  Inputs inputs;
  Rng rng(seed ^ hash_bytes(std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(spec.name.data()),
                     spec.name.size())));
  if (spec.name == "fed_cold_r2") {
    make_cold(inputs, spec, rng, sequence_length);
  } else if (spec.name == "fed_warm_zipf") {
    make_zipf(inputs, spec, rng, sequence_length);
  } else if (spec.name == "multiload_mix") {
    make_multiload(inputs, spec, rng, sequence_length);
  } else {
    throw std::invalid_argument("no input generator for " + spec.name);
  }
  Digest digest;
  digest.add(seed);
  for (const PoolEntry& entry : inputs.pool) {
    digest.add(entry.frame);
    inputs.bytes += entry.frame.size();
  }
  digest.add(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(inputs.sequence.data()),
      inputs.sequence.size() * sizeof(std::uint32_t)));
  inputs.digest = digest.value();
  return inputs;
}

}  // namespace sb
