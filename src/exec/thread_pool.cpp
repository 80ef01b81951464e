#include "exec/thread_pool.hpp"

#include <algorithm>

#include "common/discipline.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::exec {

namespace {

/// Set while a thread is executing chunks of some job; nested
/// parallel_for calls from such a thread run inline instead of blocking
/// on the pool (the outer dispatch may hold every worker).
thread_local bool t_inside_pool_body = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? static_cast<std::size_t>(hw - 1) : 0;
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(pool_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              ForOptions options) {
  DLS_REQUIRE(static_cast<bool>(body), "parallel_for requires a body");
  const std::function<void(std::size_t, std::size_t)> chunk_body =
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      };
  parallel_for_chunks(count, chunk_body, options);
}

void ThreadPool::parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    ForOptions options) {
  DLS_REQUIRE(static_cast<bool>(body), "parallel_for requires a body");
  if (count == 0) return;

  std::size_t parallelism = worker_count();
  if (options.max_workers != 0) {
    parallelism = std::min(parallelism, options.max_workers);
  }
  parallelism = std::min(parallelism, count);

  // Serial fast paths: explicit single-worker requests, a pool with no
  // workers, and nested submissions from inside a pool body.
  if (parallelism <= 1 || workers_.empty() || t_inside_pool_body) {
    body(0, count);
    return;
  }

  std::size_t grain = options.grain;
  if (grain == 0) grain = std::max<std::size_t>(1, count / (parallelism * 4));
  const std::size_t chunk_count = (count + grain - 1) / grain;

  DLS_SPAN_ARGS("exec.dispatch",
                "{\"count\":" + std::to_string(count) +
                    ",\"chunks\":" + std::to_string(chunk_count) + "}");
  DLS_COUNT("exec.dispatches");
  DLS_COUNT("exec.chunks", chunk_count);
  DLS_OBSERVE("exec.queue_depth", static_cast<double>(chunk_count),
              {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});

  const std::scoped_lock submit(submit_mutex_);
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->deques.resize(workers_.size() + 1);
  job->deque_mutexes.reserve(workers_.size() + 1);
  for (std::size_t i = 0; i <= workers_.size(); ++i) {
    job->deque_mutexes.push_back(std::make_unique<std::mutex>());
  }
  job->chunks_remaining = chunk_count;
  job->slots = parallelism - 1;  // pool workers; the caller always joins

  // Deal chunks round-robin across the participating deques so every
  // worker starts with a contiguous, cache-friendly share.
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(count, begin + grain);
    job->deques[c % parallelism].push_back(Chunk{begin, end});
  }

  {
    const std::scoped_lock lock(pool_mutex_);
    current_job_ = job;
    ++epoch_;
  }
  wake_cv_.notify_all();

  run_chunks(*job, 0);

  {
    std::unique_lock lock(job->state_mutex);
    job->done_cv.wait(lock, [&] { return job->chunks_remaining == 0; });
  }
  {
    const std::scoped_lock lock(pool_mutex_);
    if (current_job_ == job) current_job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock lock(pool_mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return stopping_ || (current_job_ && epoch_ != seen_epoch);
    });
    if (stopping_) return;
    seen_epoch = epoch_;
    const std::shared_ptr<Job> job = current_job_;
    lock.unlock();

    bool participate = false;
    {
      const std::scoped_lock state(job->state_mutex);
      if (job->slots > 0 && job->chunks_remaining > 0) {
        --job->slots;
        participate = true;
      }
    }
    if (participate) run_chunks(*job, worker_index + 1);

    lock.lock();
  }
}

void ThreadPool::run_chunks(Job& job, std::size_t self) {
  t_inside_pool_body = true;
  Chunk chunk;
  while (pop_or_steal(job, self, chunk)) {
    bool run = true;
    {
      // After a throw, chunks below the lowest failing one still run:
      // one of them may throw too, and the rethrown error must be the
      // lowest chunk that throws, not whichever failed first.
      const std::scoped_lock state(job.state_mutex);
      run = !job.cancelled || chunk.begin < job.error_begin;
    }
    if (run) {
      // Scoped so the event is recorded before the chunks_remaining
      // decrement below — the caller's post-join drain then observes it
      // via the same state_mutex release.
      DLS_SPAN_DETAIL("exec.chunk");
      try {
        (*job.body)(chunk.begin, chunk.end);
      } catch (...) {
        const std::scoped_lock state(job.state_mutex);
        job.cancelled = true;
        if (!job.error || chunk.begin < job.error_begin) {
          job.error = std::current_exception();
          job.error_begin = chunk.begin;
        }
      }
    }
    {
      const std::scoped_lock state(job.state_mutex);
      if (--job.chunks_remaining == 0) job.done_cv.notify_all();
    }
  }
  t_inside_pool_body = false;
}

DLS_HOT_NOALLOC
bool ThreadPool::pop_or_steal(Job& job, std::size_t self, Chunk& out) {
  {  // Own deque, LIFO: the most recently dealt range is cache-warmest.
    const std::scoped_lock lock(*job.deque_mutexes[self]);
    if (!job.deques[self].empty()) {
      out = job.deques[self].back();
      job.deques[self].pop_back();
      return true;
    }
  }
  // Steal FIFO from the first victim with work, scanning from the next
  // deque over so thieves spread instead of mobbing deque 0.
  const std::size_t n = job.deques.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t victim = (self + k) % n;
    const std::scoped_lock lock(*job.deque_mutexes[victim]);
    if (!job.deques[victim].empty()) {
      out = job.deques[victim].front();
      job.deques[victim].pop_front();
      DLS_COUNT("exec.steals");
      return true;
    }
  }
  return false;
}

}  // namespace dls::exec
