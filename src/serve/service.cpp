#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/discipline.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "serve/frame.hpp"

namespace dls::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

/// The kOk answer carrying `solution`, without payments: the one shape
/// of every cache hit (inline, brown-out, dispatch window) and the base
/// of every fresh solve's answer.
ScheduleResponse solved_response(std::uint64_t request_id,
                                 const dlt::LinearSolution& solution,
                                 bool cache_hit) {
  ScheduleResponse response;
  response.request_id = request_id;
  response.status = ScheduleStatus::kOk;
  response.cache_hit = cache_hit;
  response.alpha = solution.alpha;
  response.makespan = solution.makespan;
  return response;
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config,
                                   exec::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::global()),
      cache_(config.cache_capacity),
      paused_(config.start_paused),
      sessions_(config.poison_budget, config.resync_scan_bytes,
                [this](FrameSession& session, const Frame& frame) {
                  on_frame(session, frame);
                }) {
  DLS_REQUIRE(config_.queue_capacity >= 1,
              "service needs a queue of at least one request");
  DLS_REQUIRE(config_.max_batch >= 1, "max_batch must be at least 1");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SchedulerService::~SchedulerService() { stop(); }

PipeEnd SchedulerService::connect() {
  Pipe pipe = make_pipe();
  adopt(std::make_unique<PipeEnd>(std::move(pipe.a)));
  return std::move(pipe.b);
}

void SchedulerService::adopt(std::unique_ptr<Transport> transport) {
  auto session = std::make_unique<FrameSession>();
  session->end = std::move(transport);
  sessions_.adopt(std::move(session));
  DLS_COUNT("serve.sessions");
}

bool SchedulerService::try_serve_inline(const ScheduleRequest& request,
                                        KeyRef key,
                                        ScheduleResponse& response) {
  // Deadline accounting is admission-relative and owned by the framed
  // path; serving such a request inline could answer where triage
  // would expire it, so any effective deadline declines the fast path.
  if (request.options.want_payments ||
      effective_deadline_us(request.options.deadline_us) > 0.0) {
    return false;
  }
  // A malformed instance is never cached, so it misses here and the
  // framed path produces its kError.
  const SolveCache::Value solution = cache_.lookup(key);
  if (!solution) return false;
  response = solved_response(request.request_id, *solution, true);
  counters_.inline_hits.add();
  return true;
}

void SchedulerService::pause() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = true;
}

void SchedulerService::resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void SchedulerService::stop() {
  // The dispatcher drains the queue onto still-open connections; after
  // that, closing a connection makes any late response write throw,
  // which respond() absorbs.
  sessions_.stop([this] {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping_ = true;
      paused_ = false;
    }
    queue_cv_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
  });
}

ServiceStats SchedulerService::stats() const {
  const Counters& c = counters_;
  ServiceStats stats;
  stats.received = c.received.value();
  stats.admitted = c.admitted.value();
  stats.ok = c.ok.value();
  stats.shed = c.shed.value();
  stats.expired = c.expired.value();
  stats.errors = c.errors.value();
  stats.degraded = c.degraded.value();
  stats.poison_frames = sessions_.poison_frames();
  stats.quarantined = sessions_.quarantined();
  stats.batch_deduped = c.batch_deduped.value();
  stats.batched = c.batch_lanes.value() + stats.batch_deduped;
  stats.batch_groups = c.batch_groups.value();
  stats.inline_hits = c.inline_hits.value();
  stats.multi_received = c.multi_received.value();
  stats.multi_loads = c.multi_loads.value();
  return stats;
}

void SchedulerService::on_frame(FrameSession& session, const Frame& frame) {
  const bool multi = frame.type == FrameType::kMultiScheduleRequest;
  if (!multi && frame.type != FrameType::kScheduleRequest) {
    respond(session, refusal(false, 0, ScheduleStatus::kError,
                             "unexpected frame type '" +
                                 to_string(frame.type) +
                                 "' (expected schedule_request)"));
    return;
  }
  Pending pending;
  pending.session = &session;
  try {
    if (multi) {
      pending.multi = decode_multi_schedule_request(frame.payload);
    } else {
      pending.request = decode_schedule_request(frame.payload);
    }
  } catch (const codec::DecodeError& e) {
    respond(session, refusal(multi, 0, ScheduleStatus::kError, e.what()));
    return;
  }
  counters_.received.add();
  if (multi) counters_.multi_received.add();
  admit(std::move(pending));
}

bool SchedulerService::try_brownout(const Pending& pending) {
  if (config_.brownout_watermark == 0) return false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() < config_.brownout_watermark) return false;
  }
  // Above the watermark the solver pool is the bottleneck, so answer
  // what the cache already knows inline from the reader thread (the
  // bytes are identical to a queued solve) and refuse the rest with a
  // typed hint instead of letting the queue shed blindly.
  DLS_SPAN("serve.brownout");
  const ScheduleRequest& request = pending.request;
  // Payments need the full mechanism run, never just cached bytes, and
  // a multi-load answer depends on the whole load mix, never on the
  // topology alone: both always degrade during a brown-out.
  if (!pending.multi && !request.options.want_payments) {
    const codec::Bytes key = canonical_topology_key(request.w, request.z);
    if (const SolveCache::Value solution = cache_.lookup(key)) {
      DLS_COUNT("serve.brownout.cache_hits");
      respond(*pending.session,
              solved_response(request.request_id, *solution, true));
      return true;
    }
  }
  respond(*pending.session,
          refusal(pending.multi.has_value(), pending.id(),
                  ScheduleStatus::kDegraded,
                  "service degraded: queue above brown-out watermark"));
  return true;
}

void SchedulerService::admit(Pending pending) {
  if (try_brownout(pending)) return;
  FrameSession& session = *pending.session;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_ && queue_.size() < config_.queue_capacity) {
      session.pending.fetch_add(1, std::memory_order_relaxed);
      pending.admitted_at = std::chrono::steady_clock::now();
      queue_.push_back(std::move(pending));
      DLS_GAUGE_MAX("serve.queue_depth", static_cast<double>(queue_.size()));
      counters_.admitted.add();
      queue_cv_.notify_one();
      return;
    }
  }
  // Explicit backpressure: the client learns immediately and retries
  // with backoff instead of waiting on a silently growing queue.
  respond(session, refusal(pending.multi.has_value(), pending.id(),
                           ScheduleStatus::kShed));
}

void SchedulerService::dispatch_loop() {
  std::vector<Pending> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) break;
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      batch.clear();
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    try {
      process_batch(batch);
    } catch (const std::exception&) {
      // Last-ditch backstop: process_batch guards its solve phase and
      // the response writes swallow transport errors, so this is
      // effectively unreachable — but an exception escaping here would
      // std::terminate the whole service from the dispatcher thread,
      // so the loop must never rethrow.
      DLS_COUNT("serve.dispatch.batch_dropped");
    }
  }
  // Drain on stop: everything still queued is answered, not dropped.
  std::deque<Pending> rest;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    rest.swap(queue_);
  }
  for (const Pending& pending : rest) {
    respond(*pending.session,
            refusal(pending.multi.has_value(), pending.id(),
                    ScheduleStatus::kError,
                    "service stopped before the request was served"));
    pending.session->pending.fetch_sub(1, std::memory_order_release);
  }
}

void SchedulerService::process_batch(std::vector<Pending>& batch) {
  DLS_SPAN_ARGS("serve.dispatch",
                "{\"batch\":" + std::to_string(batch.size()) + "}");
  DLS_OBSERVE("serve.batch_size", static_cast<double>(batch.size()),
              {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  std::vector<Reply> replies(batch.size());
  std::vector<SingleTask> singles;
  std::vector<MissGroup> groups;
  classify_window(batch, replies, singles, groups);
  while (dispatch_scratch_.size() < groups.size()) {
    dispatch_scratch_.push_back(std::make_unique<DispatchScratch>());
  }
  const std::size_t group_count = groups.size();
  try {
    pool_->parallel_for(group_count + singles.size(), [&](std::size_t t) {
      if (t < group_count) {
        solve_group(groups[t], *dispatch_scratch_[t], batch, replies);
      } else {
        SingleTask& task = singles[t - group_count];
        if (batch[task.index].multi) {
          replies[task.index] = handle_multi(batch[task.index]);
        } else {
          replies[task.index] = handle(batch[task.index], task);
        }
      }
    });
  } catch (const std::exception& e) {
    // handle()/handle_multi()/solve_group() absorb per-request failures
    // themselves, so only a failure outside them (response assignment,
    // pool plumbing) lands here. The pool reports the first exception
    // and the rest of the tasks still ran, but which entry it came from
    // is unknown — refuse every entry that was being computed in
    // parallel (classify_window results stand) and keep the dispatcher.
    DLS_COUNT("serve.dispatch.batch_failed");
    const auto refuse = [&](std::size_t i) {
      replies[i] = refusal(batch[i].multi.has_value(), batch[i].id(),
                           ScheduleStatus::kError, e.what());
    };
    for (const SingleTask& task : singles) refuse(task.index);
    for (const MissGroup& group : groups) {
      for (const std::size_t i : group.members) refuse(i);
      for (const auto& [i, lane] : group.aliases) refuse(i);
    }
  }
  // Responses are written serially, in admission order, after the
  // parallel solve — frame writes are atomic either way, but serial
  // writes keep per-connection response order deterministic.
  // [[maybe_unused]]: the only consumer is DLS_OBSERVE, which compiles
  // out at DLS_OBS_LEVEL=0 and must not leave a warning behind.
  [[maybe_unused]] const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto* single = std::get_if<ScheduleResponse>(&replies[i]);
    if (single != nullptr && single->status == ScheduleStatus::kOk) {
      DLS_OBSERVE("serve.request.latency_us",
                  elapsed_us(batch[i].admitted_at, now),
                  {10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
                   5000.0, 10000.0, 20000.0, 50000.0, 100000.0, 1000000.0});
    }
    respond(*batch[i].session, replies[i]);
    batch[i].session->pending.fetch_sub(1, std::memory_order_release);
  }
}

void SchedulerService::classify_window(const std::vector<Pending>& batch,
                                       std::vector<Reply>& replies,
                                       std::vector<SingleTask>& singles,
                                       std::vector<MissGroup>& groups) {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& pending = batch[i];
    const bool multi = pending.multi.has_value();
    // The deadline rule of both traffic kinds: an expired request is
    // answered here, solver-untouched, and never occupies a lane.
    const double deadline_us =
        effective_deadline_us(multi ? pending.multi->deadline_us
                                    : pending.request.options.deadline_us);
    if (deadline_us > 0.0 &&
        elapsed_us(pending.admitted_at, now) > deadline_us) {
      replies[i] = refusal(multi, pending.id(), ScheduleStatus::kExpired);
      continue;
    }
    if (multi) {
      // Multi-load requests always take the per-request path: the
      // answer depends on the whole load mix, so there is nothing to
      // look up or coalesce with batchmates.
      singles.push_back(SingleTask{i});
      continue;
    }
    const ScheduleRequest& request = pending.request;
    std::optional<net::LinearNetwork> network;
    try {
      network.emplace(request.w, request.z);
    } catch (const std::exception& e) {
      replies[i] = refusal(false, request.request_id, ScheduleStatus::kError,
                           e.what());
      continue;
    }

    // Keyed and hashed once: the hash rides along to insert.
    HashedKey key = canonical_topology_key(request.w, request.z);
    SolveCache::Value solution = cache_.lookup(key);
    if (solution && !request.options.want_payments) {
      replies[i] = solved_response(request.request_id, *solution, true);
      continue;
    }
    if (solution || config_.batch_min_lanes == 0) {
      // Payments need the mechanism run even on a solution hit, and with
      // batching disabled a miss is solved alone: both take handle(),
      // handing over the network, key and lookup result (null = known
      // miss) so none of them is built or consulted twice.
      singles.push_back(SingleTask{i, std::move(network), std::move(key),
                                   std::move(solution)});
      continue;
    }

    // Cache miss: group by chain length; identical topologies collapse
    // into one lane (payment-carrying requests keep their own lane so
    // each gets its own mechanism run).
    const std::size_t chain = request.w.size();
    MissGroup* group = nullptr;
    for (MissGroup& g : groups) {
      if (g.chain == chain) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->chain = chain;
    }
    if (!request.options.want_payments) {
      bool aliased = false;
      for (std::size_t lane = 0; lane < group->keys.size(); ++lane) {
        if (group->keys[lane] == key) {
          group->aliases.emplace_back(i, lane);
          aliased = true;
          break;
        }
      }
      if (aliased) continue;
    }
    group->members.push_back(i);
    group->keys.push_back(std::move(key));
    group->networks.push_back(std::move(*network));
  }

  // Undersized groups don't amortise the batch machinery; hand their
  // members back to the per-request path (aliases justify keeping a
  // group regardless — one solve still answers several requests).
  for (auto it = groups.begin(); it != groups.end();) {
    if (it->members.size() < config_.batch_min_lanes &&
        it->aliases.empty()) {
      for (std::size_t lane = 0; lane < it->members.size(); ++lane) {
        // Classification already validated, keyed and looked these up
        // (known misses).
        singles.push_back(SingleTask{it->members[lane],
                                     std::move(it->networks[lane]),
                                     std::move(it->keys[lane]), nullptr});
      }
      it = groups.erase(it);
    } else {
      ++it;
    }
  }
}

// The dispatcher's inner loop: stages every lane of a miss group into
// the warmed batch solver and runs it. Split from solve_group so the
// part that must stay allocation-free under load carries the
// DLS_HOT_NOALLOC contract, while the response fan-out above it is free
// to build strings and shared_ptrs.
DLS_HOT_NOALLOC
void SchedulerService::solve_group_lanes(const MissGroup& group,
                                         DispatchScratch& scratch,
                                         const std::vector<Pending>& batch) {
  const std::size_t lanes = group.members.size();
  scratch.solver.begin(group.chain, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const ScheduleRequest& request = batch[group.members[lane]].request;
    scratch.solver.set_instance(lane, request.w, request.z);
  }
  scratch.solver.solve();
}

void SchedulerService::solve_group(MissGroup& group,
                                   DispatchScratch& scratch,
                                   const std::vector<Pending>& batch,
                                   std::vector<Reply>& replies) {
  const std::size_t lanes = group.members.size();
  DLS_SPAN_ARGS("serve.batch.solve",
                "{\"m\":" + std::to_string(group.chain) +
                    ",\"k\":" + std::to_string(lanes) + "}");
  counters_.batch_groups.add();
  counters_.batch_lanes.add(lanes);
  counters_.batch_deduped.add(group.aliases.size());

  try {
    solve_group_lanes(group, scratch, batch);
  } catch (const std::exception& e) {
    // A contract violation (or allocation failure) mid-batch poisons
    // every lane equally; each member gets an error, aliases included.
    const auto fail = [&](std::size_t i) {
      replies[i] = refusal(false, batch[i].id(), ScheduleStatus::kError,
                           e.what());
    };
    for (const std::size_t i : group.members) fail(i);
    for (const auto& [i, lane] : group.aliases) fail(i);
    return;
  }

  std::vector<SolveCache::Value> solutions(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t i = group.members[lane];
    const ScheduleRequest& request = batch[i].request;
    auto solved = std::make_shared<dlt::LinearSolution>();
    scratch.solver.extract(lane, *solved);
    solutions[lane] = std::move(solved);
    cache_.insert(std::move(group.keys[lane]), solutions[lane]);

    replies[i] = solved_response(request.request_id, *solutions[lane], false);
    if (request.options.want_payments) {
      auto& response = std::get<ScheduleResponse>(replies[i]);
      try {
        const net::LinearNetwork& network = group.networks[lane];
        const core::DlsLblResult& assessment = core::assess_compliant_from_batch(
            network, scratch.solver, lane, network.processing_times(),
            config_.mechanism, scratch.assess);
        response.payments.reserve(assessment.processors.size());
        for (const core::Assessment& a : assessment.processors) {
          response.payments.push_back(a.money.payment);
        }
        response.total_payment = assessment.total_payment;
      } catch (const std::exception& e) {
        replies[i] = refusal(false, request.request_id,
                             ScheduleStatus::kError, e.what());
      }
    }
  }

  for (const auto& [i, lane] : group.aliases) {
    replies[i] =
        solved_response(batch[i].request.request_id, *solutions[lane], false);
  }
}

ScheduleResponse SchedulerService::handle(const Pending& pending,
                                          SingleTask& task) {
  DLS_SPAN("serve.handle");
  const ScheduleRequest& request = pending.request;
  try {
    const net::LinearNetwork& network = *task.network;
    SolveCache::Value solution = task.solution;
    if (!solution) {
      auto solved = std::make_shared<dlt::LinearSolution>();
      dlt::solve_linear_boundary_into(network, *solved,
                                      /*want_steps=*/false);
      solution = std::move(solved);
      cache_.insert(std::move(task.key), solution);
    }
    ScheduleResponse response = solved_response(
        request.request_id, *solution, task.solution != nullptr);
    if (request.options.want_payments) {
      // Payments come from the very allocation just answered: one
      // Algorithm 1 run per paid request, none on a cache hit.
      const core::DlsLblResult assessment =
          core::assess_compliant_from_solution(network, *solution,
                                               network.processing_times(),
                                               config_.mechanism);
      response.payments.reserve(assessment.processors.size());
      for (const core::Assessment& a : assessment.processors) {
        response.payments.push_back(a.money.payment);
      }
      response.total_payment = assessment.total_payment;
    }
    return response;
  } catch (const std::exception& e) {
    // Typed (dls::Error) or untyped (e.g. bad_alloc) failure: refuse
    // rather than unwind into the dispatcher thread and kill the service.
    return std::get<ScheduleResponse>(refusal(
        false, request.request_id, ScheduleStatus::kError, e.what()));
  }
}

MultiScheduleResponse SchedulerService::handle_multi(const Pending& pending) {
  DLS_SPAN("serve.multi.handle");
  const MultiScheduleRequest& request = *pending.multi;
  MultiScheduleResponse response;
  response.request_id = request.request_id;
  try {
    const net::LinearNetwork network(request.w, request.z);
    std::vector<multiload::LoadSpec> specs;
    specs.reserve(request.loads.size());
    for (const MultiLoadItem& item : request.loads) {
      specs.push_back(multiload::LoadSpec{item.load_id, item.size,
                                          item.release, item.deadline});
    }
    multiload::MultiLoadConfig config;
    config.policy = static_cast<multiload::DispatchPolicy>(request.policy);
    config.installments_per_load = request.installments;
    config.ingress_z = request.ingress_z;
    multiload::MultiLoadSolver solver(network);
    const multiload::MultiLoadSchedule schedule = solver.solve(specs, config);
    response.loads.reserve(schedule.loads.size());
    for (const multiload::LoadOutcome& outcome : schedule.loads) {
      MultiLoadResult result;
      result.load_id = outcome.spec.id;
      result.start = outcome.start;
      result.completion = outcome.completion;
      result.deadline_met = outcome.deadline_met;
      response.loads.push_back(result);
    }
    response.makespan = schedule.makespan;
    response.serialized_makespan = schedule.serialized_makespan;
    if (request.want_payments) {
      const multiload::MultiLoadAssessment assessment =
          multiload::assess_loads(network, network.processing_times(), specs,
                                  config_.mechanism);
      for (std::size_t i = 0; i < assessment.loads.size(); ++i) {
        response.loads[i].total_payment = assessment.loads[i].total_payment;
      }
      response.total_payment = assessment.total_payment;
    }
    response.status = ScheduleStatus::kOk;
  } catch (const std::exception& e) {
    // Typed (dls::Error) or untyped failure (bad_alloc, length_error
    // from a hostile request size): letting it escape would unwind
    // through the thread pool into the dispatcher thread and terminate
    // the process.
    return std::get<MultiScheduleResponse>(refusal(
        true, request.request_id, ScheduleStatus::kError, e.what()));
  }
  return response;
}

SchedulerService::Reply SchedulerService::refusal(bool multi,
                                                  std::uint64_t request_id,
                                                  ScheduleStatus status,
                                                  std::string error) const {
  const double retry_after_us = status == ScheduleStatus::kDegraded
                                    ? config_.degraded_retry_after_us
                                    : 0.0;
  const auto fill = [&](auto response) -> Reply {
    response.request_id = request_id;
    response.status = status;
    response.error = std::move(error);
    response.retry_after_us = retry_after_us;
    return response;
  };
  return multi ? fill(MultiScheduleResponse{}) : fill(ScheduleResponse{});
}

void SchedulerService::respond(FrameSession& session, const Reply& reply) {
  const auto* multi = std::get_if<MultiScheduleResponse>(&reply);
  const ScheduleStatus status = multi != nullptr
                                    ? multi->status
                                    : std::get<ScheduleResponse>(reply).status;
  // Both traffic kinds land in the same status counters; multi-load
  // kOk answers also count their loads.
  switch (status) {
    case ScheduleStatus::kOk:
      counters_.ok.add();
      if (multi != nullptr) counters_.multi_loads.add(multi->loads.size());
      break;
    case ScheduleStatus::kShed:
      counters_.shed.add();
      break;
    case ScheduleStatus::kExpired:
      counters_.expired.add();
      break;
    case ScheduleStatus::kError:
      counters_.errors.add();
      break;
    case ScheduleStatus::kDegraded:
      counters_.degraded.add();
      break;
  }
  try {
    write_frame(*session.end,
                multi != nullptr
                    ? Frame{FrameType::kMultiScheduleResponse,
                            encode_multi_schedule_response(*multi)}
                    : Frame{FrameType::kScheduleResponse,
                            encode_schedule_response(
                                std::get<ScheduleResponse>(reply))});
  } catch (const TransportError&) {
    // The client hung up before its answer arrived; nothing to do.
  }
}

}  // namespace dls::serve
