#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>

#include "codec/bytes.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/batch.hpp"
#include "dlt/linear.hpp"
#include "exec/thread_pool.hpp"
#include "loadgen.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "oracle.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"
#include "serve/shard.hpp"
#include "stats.hpp"

namespace sb {

namespace ds = dls::serve;

namespace {

/// Keeps a computed value alive so the timed call is not optimised out.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Samples {
  std::vector<double> us;
  double p50() { return percentile(us, 0.5); }
  double mean() const {
    return us.empty() ? 0.0
                      : std::accumulate(us.begin(), us.end(), 0.0) /
                            static_cast<double>(us.size());
  }
};

/// Times fn(i) for i in [0, count), stopping early once `budget_s` is
/// spent (after at least a handful of calls).
Samples measure(std::size_t count, double budget_s,
                const std::function<void(std::size_t)>& fn) {
  Samples s;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    const std::int64_t t1 = now_ns();
    s.us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (i >= 8 && t1 > stop) break;
  }
  return s;
}

/// Ping-pong of a `bytes`-sized frame over a fresh in-memory pipe.
Samples pipe_round_trips(std::size_t bytes, std::size_t count, double budget_s) {
  ds::Pipe pipe = ds::make_pipe();
  std::thread echo([&] {
    std::vector<std::uint8_t> buffer(bytes);
    try {
      while (pipe.b.read_exact(buffer)) pipe.b.write(buffer);
    } catch (const std::exception&) {
      // The measuring side closed mid-frame; nothing left to echo.
    }
  });
  std::vector<std::uint8_t> out(bytes, 0x5A);
  std::vector<std::uint8_t> in(bytes);
  Samples s = measure(count, budget_s, [&](std::size_t) {
    pipe.a.write(out);
    pipe.a.read_exact(in);
  });
  pipe.a.close();
  echo.join();
  return s;
}

}  // namespace

LayerReport replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                          double budget_s) {
  LayerReport report;
  auto& m = report.metrics;
  StageCosts& st = report.stages;
  const double slice = budget_s / 16.0;
  const dls::core::MechanismConfig& mechanism = spec.service.mechanism;

  // The sample: the head of the workload's send sequence, so classes
  // appear in their traffic proportions.
  std::vector<std::uint32_t> sample(
      inputs.sequence.begin(),
      inputs.sequence.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(4096, inputs.sequence.size())));
  std::vector<const ds::ScheduleRequest*> singles;
  std::vector<const ds::MultiScheduleRequest*> multis;
  for (const std::uint32_t index : sample) {
    const PoolEntry& entry = inputs.pool[index];
    if (entry.multi) {
      multis.push_back(&inputs.multis[entry.source]);
    } else {
      singles.push_back(&inputs.singles[entry.source]);
    }
  }
  st.multi_share = static_cast<double>(multis.size()) /
                   static_cast<double>(sample.size());

  // serve/frame + codec: request and response framing.
  std::vector<ds::ScheduleResponse> responses;
  std::vector<ds::MultiScheduleResponse> multi_responses;
  std::vector<dls::codec::Bytes> request_frames;
  std::vector<dls::codec::Bytes> response_frames;
  for (const std::uint32_t index : sample) {
    const PoolEntry& entry = inputs.pool[index];
    request_frames.push_back(entry.frame);
    dls::codec::Bytes payload;
    if (entry.multi) {
      multi_responses.push_back(expected_response(inputs.multis[entry.source], mechanism));
      payload = ds::encode_multi_schedule_response(multi_responses.back());
    } else {
      responses.push_back(expected_response(inputs.singles[entry.source], mechanism));
      payload = ds::encode_schedule_response(responses.back());
    }
    ds::Frame frame;
    frame.type = entry.multi ? ds::FrameType::kMultiScheduleResponse
                             : ds::FrameType::kScheduleResponse;
    frame.payload = std::move(payload);
    response_frames.push_back(ds::encode_frame(frame));
    if (response_frames.size() >= 512) break;
  }
  const std::size_t framed = response_frames.size();
  double bytes = 0.0;
  std::vector<double> response_bytes;
  for (std::size_t i = 0; i < framed; ++i) {
    bytes += static_cast<double>(request_frames[i].size() + response_frames[i].size());
    response_bytes.push_back(static_cast<double>(response_frames[i].size()));
  }
  m["frame.bytes_per_req"] = bytes / static_cast<double>(framed);

  Samples encode_req = measure(framed, slice, [&](std::size_t i) {
    const PoolEntry& entry = inputs.pool[sample[i]];
    ds::Frame frame;
    if (entry.multi) {
      frame.type = ds::FrameType::kMultiScheduleRequest;
      frame.payload = ds::encode_multi_schedule_request(inputs.multis[entry.source]);
    } else {
      frame.type = ds::FrameType::kScheduleRequest;
      frame.payload = ds::encode_schedule_request(inputs.singles[entry.source]);
    }
    keep(ds::encode_frame(frame));
  });
  Samples decode_req = measure(framed, slice, [&](std::size_t i) {
    const ds::Frame frame = ds::decode_frame(request_frames[i]);
    if (frame.type == ds::FrameType::kMultiScheduleRequest) {
      keep(ds::decode_multi_schedule_request(frame.payload));
    } else {
      keep(ds::decode_schedule_request(frame.payload));
    }
  });
  std::size_t next_single = 0;
  std::size_t next_multi = 0;
  Samples encode_resp = measure(framed, slice, [&](std::size_t i) {
    ds::Frame frame;
    if (inputs.pool[sample[i]].multi) {
      frame.type = ds::FrameType::kMultiScheduleResponse;
      frame.payload = ds::encode_multi_schedule_response(
          multi_responses[next_multi++ % multi_responses.size()]);
    } else {
      frame.type = ds::FrameType::kScheduleResponse;
      frame.payload = ds::encode_schedule_response(
          responses[next_single++ % responses.size()]);
    }
    keep(ds::encode_frame(frame));
  });
  Samples decode_resp = measure(framed, slice, [&](std::size_t i) {
    const ds::Frame frame = ds::decode_frame(response_frames[i]);
    if (frame.type == ds::FrameType::kMultiScheduleResponse) {
      keep(ds::decode_multi_schedule_response(frame.payload));
    } else {
      keep(ds::decode_schedule_response(frame.payload));
    }
  });
  m["frame.encode_req_us"] = encode_req.p50();
  m["frame.decode_req_us"] = decode_req.p50();
  m["frame.encode_resp_us"] = encode_resp.p50();
  m["frame.decode_resp_us"] = decode_resp.p50();
  st.encode_req = encode_req.mean();
  st.decode_req = decode_req.mean();
  st.encode_resp = encode_resp.mean();
  st.decode_resp = decode_resp.mean();

  // serve/pipe: the per-hop handoff floor, at the median response size.
  Samples pipe = pipe_round_trips(
      static_cast<std::size_t>(median(response_bytes)), 4000, slice);
  m["pipe.rtt_us"] = pipe.p50();
  st.pipe_rtt = pipe.mean();

  // serve/cache: key construction and LRU lookups in the workload's
  // order, against a cache of one shard's capacity.
  std::vector<dls::codec::Bytes> keys;
  Samples key = measure(singles.size(), slice, [&](std::size_t i) {
    keys.push_back(ds::canonical_topology_key(singles[i]->w, singles[i]->z));
  });
  m["cache.key_us"] = singles.empty() ? 0.0 : key.p50();
  st.key = key.mean();
  {
    ds::SolveCache cache(spec.service.cache_capacity);
    const auto value = std::make_shared<const dls::dlt::LinearSolution>();
    Samples lookup = measure(keys.size(), slice, [&](std::size_t i) {
      if (!cache.lookup(keys[i])) cache.insert(keys[i], value);
    });
    m["cache.lookup_us"] = keys.empty() ? 0.0 : lookup.p50();
    st.lookup = lookup.mean();
  }

  // serve/shard: owner lookup on the ring and the primary-share skew.
  m["shard.owners_us"] = 0.0;
  m["shard.max_share"] = 0.0;
  if (spec.shards > 0 && !keys.empty()) {
    const ds::ShardMap map(spec.shards, ds::ShardMapConfig{64});
    Samples owners = measure(keys.size(), slice, [&](std::size_t i) {
      keep(map.owners(keys[i], spec.replication));
    });
    m["shard.owners_us"] = owners.p50();
    st.owners = owners.mean();
    std::vector<double> primary(spec.shards, 0.0);
    for (const dls::codec::Bytes& k : keys) primary[map.primary(k)] += 1.0;
    m["shard.max_share"] = *std::max_element(primary.begin(), primary.end()) /
                           static_cast<double>(keys.size());
  }

  // dlt + core: Algorithm 1 and the payments per chain-length class.
  for (const std::size_t length : {std::size_t{256}, std::size_t{2048}}) {
    const std::string tag = length == 256 ? "m256" : "m2048";
    std::vector<const ds::ScheduleRequest*> of_length;
    std::vector<const ds::ScheduleRequest*> paying;
    // Only the cold workload's classes carry these names; elsewhere the
    // metric reads 0 (no such work in the workload).
    const bool named = std::find(inputs.class_names.begin(), inputs.class_names.end(),
                                 tag) != inputs.class_names.end();
    if (named) {
      for (const ds::ScheduleRequest* r : singles) {
        if (r->w.size() != length) continue;
        of_length.push_back(r);
        if (r->options.want_payments) paying.push_back(r);
      }
    }
    Samples solve = measure(std::min<std::size_t>(of_length.size(), 400), slice,
                            [&](std::size_t i) {
      const dls::net::LinearNetwork network(of_length[i]->w, of_length[i]->z);
      keep(dls::dlt::solve_linear_boundary(network));
    });
    Samples assess = measure(std::min<std::size_t>(paying.size(), 200), slice,
                             [&](std::size_t i) {
      const dls::net::LinearNetwork network(paying[i]->w, paying[i]->z);
      keep(dls::core::assess_compliant(network, network.processing_times(), mechanism));
    });
    m["dlt.solve_us." + tag] = of_length.empty() ? 0.0 : solve.p50();
    m["core.assess_us." + tag] = paying.empty() ? 0.0 : assess.p50();
    if (length == 2048) {
      // One dispatch-window batch of four equal-length misses.
      constexpr std::size_t kLanes = 4;
      dls::dlt::BatchLinearSolver batch;
      batch.reserve(length, kLanes);
      Samples lanes = measure(of_length.size() / kLanes, slice, [&](std::size_t i) {
        batch.begin(length, kLanes);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const ds::ScheduleRequest* r = of_length[i * kLanes + lane];
          batch.set_instance(lane, r->w, r->z);
        }
        batch.solve();
        keep(batch.makespan(0));
      });
      m["dlt.batch_lane_us." + tag] =
          of_length.size() < kLanes ? 0.0 : lanes.p50() / static_cast<double>(kLanes);
    }
  }
  // Closure costs: the mean single-load solve and payment over the mix.
  {
    Samples solve = measure(std::min<std::size_t>(singles.size(), 400), slice,
                            [&](std::size_t i) {
      const dls::net::LinearNetwork network(singles[i]->w, singles[i]->z);
      keep(dls::dlt::solve_linear_boundary(network));
    });
    std::vector<const ds::ScheduleRequest*> paying;
    for (const ds::ScheduleRequest* r : singles) {
      if (r->options.want_payments) paying.push_back(r);
    }
    Samples assess = measure(std::min<std::size_t>(paying.size(), 200), slice,
                             [&](std::size_t i) {
      const dls::net::LinearNetwork network(paying[i]->w, paying[i]->z);
      keep(dls::core::assess_compliant(network, network.processing_times(), mechanism));
    });
    st.solve_single = solve.mean();
    st.assess_single = assess.mean();
    st.payment_share = singles.empty() ? 0.0
                                       : static_cast<double>(paying.size()) /
                                             static_cast<double>(singles.size());
  }

  // multiload: the per-request solver the service builds, and payments.
  {
    double installments = 0.0;
    Samples solve = measure(std::min<std::size_t>(multis.size(), 400), slice,
                            [&](std::size_t i) {
      const ds::MultiScheduleRequest& r = *multis[i];
      dls::multiload::MultiLoadSolver solver(dls::net::LinearNetwork(r.w, r.z));
      const dls::multiload::MultiLoadSchedule schedule =
          solver.solve(load_specs(r), multiload_config(r));
      installments += static_cast<double>(schedule.installments.size());
      keep(schedule);
    });
    std::vector<const ds::MultiScheduleRequest*> paying;
    for (const ds::MultiScheduleRequest* r : multis) {
      if (r->want_payments) paying.push_back(r);
    }
    Samples assess = measure(std::min<std::size_t>(paying.size(), 200), slice,
                             [&](std::size_t i) {
      const ds::MultiScheduleRequest& r = *paying[i];
      const dls::net::LinearNetwork network(r.w, r.z);
      keep(dls::multiload::assess_loads(network, network.processing_times(), load_specs(r),
                                        mechanism));
    });
    m["multiload.solve_us"] = multis.empty() ? 0.0 : solve.p50();
    m["multiload.assess_us"] = paying.empty() ? 0.0 : assess.p50();
    m["multiload.installments_per_req"] =
        solve.us.empty() ? 0.0 : installments / static_cast<double>(solve.us.size());
    const double pay_share = multis.empty() ? 0.0
                                            : static_cast<double>(paying.size()) /
                                                  static_cast<double>(multis.size());
    st.multi = solve.mean() + pay_share * assess.mean();
  }

  // exec: one dispatch of max_batch empty bodies on a pool the size of
  // the one the workload's stack owns.
  {
    dls::exec::ThreadPool pool(spec.pool_workers);
    Samples dispatch = measure(4000, slice, [&](std::size_t) {
      pool.parallel_for(spec.service.max_batch, [](std::size_t i) { keep(i); });
    });
    m["pool.dispatch_us"] = dispatch.p50();
    st.dispatch = dispatch.mean();
  }
  return report;
}

}  // namespace sb
