// Fixed-size worker thread pool with a submission-ordered JobSet API.
//
// The pool is deliberately minimal: a bounded set of workers draining one
// FIFO queue. Determinism comes from the layer above — jobs are pure
// functions of their inputs (each sweep job owns a whole Experiment), and
// JobSet returns results in submission order, so the output of a parallel
// run is a pure function of what was submitted, never of how the OS
// scheduled the workers.
//
// A pool can report into an obs::PoolTelemetry (the fleet observatory):
// each worker has a stable index, and the pool calls the telemetry hooks
// around every job so the grid document can reconstruct per-worker
// utilization, queue waits and a merged grid timeline. The hooks are
// out-of-line calls into obs/fleet.cpp — this header performs no clock
// reads itself, keeping the wall-clock lint waiver confined to that TU. A
// null telemetry pointer costs one predictable branch per job.
//
// Lock discipline is compiler-checked: queue state is PARALEON_GUARDED_BY
// the pool mutex and Clang's `-Wthread-safety` (an error in the
// static-analysis CI lane) rejects any access outside a MutexLock scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/fleet.hpp"

namespace paraleon::exec {

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1). When `telemetry` is
  /// non-null the pool attaches to it for its whole lifetime; one
  /// telemetry records one pool.
  explicit ThreadPool(int workers,
                      obs::PoolTelemetry* telemetry = nullptr)
      : telemetry_(telemetry) {
    const int n = workers < 1 ? 1 : workers;
    if (telemetry_ != nullptr) telemetry_->attach(n);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      common::MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    // Workers are joined: every submitted job ran, so the telemetry's
    // wall window ends here.
    if (telemetry_ != nullptr) telemetry_->detach();
  }

  int workers() const { return static_cast<int>(threads_.size()); }

  obs::PoolTelemetry* telemetry() const { return telemetry_; }

  /// Enqueues a job. The pool never drops jobs; everything enqueued
  /// before destruction runs to completion (the destructor only stops the
  /// intake).
  void submit(std::function<void()> job) PARALEON_EXCLUDES(mu_) {
    // The telemetry span index; unused when the pool is untracked.
    const std::uint64_t span =
        telemetry_ != nullptr ? telemetry_->on_submit() : 0;
    {
      common::MutexLock lock(mu_);
      queue_.push_back(Job{std::move(job), span});
    }
    cv_.notify_one();
  }

  /// The machine's usable worker count (>= 1 even when the runtime cannot
  /// tell): the default for `--jobs 0` style "use every core" requests.
  static int hardware_workers() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

 private:
  struct Job {
    std::function<void()> fn;
    std::uint64_t span = 0;
  };

  void worker_loop(int worker) PARALEON_EXCLUDES(mu_) {
    for (;;) {
      Job job;
      {
        common::MutexLock lock(mu_);
        // Explicit predicate loop (not a wait-with-lambda): the analysis
        // proves the guarded reads here, which it cannot inside a lambda.
        while (!stopping_ && queue_.empty()) cv_.wait(mu_);
        if (queue_.empty()) return;  // stopping_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      if (telemetry_ != nullptr) telemetry_->on_job_start(worker, job.span);
      job.fn();
      if (telemetry_ != nullptr) telemetry_->on_job_end(job.span);
    }
  }

  common::Mutex mu_;
  common::CondVar cv_;
  std::deque<Job> queue_ PARALEON_GUARDED_BY(mu_);
  bool stopping_ PARALEON_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  obs::PoolTelemetry* telemetry_;
};

/// A batch of jobs whose results come back in submission order, so callers
/// observe scheduling-independent output. Exceptions propagate: wait_all()
/// finishes every job, counts every failure in the pool's telemetry (when
/// one is attached), then rethrows the exception of the earliest submitted
/// job that failed.
///
/// The future list is mutex-guarded so a JobSet tolerates submissions from
/// several producer threads; waiting stays a single-consumer operation.
template <typename T>
class JobSet {
 public:
  explicit JobSet(ThreadPool* pool) : pool_(pool) {}

  /// Submits `fn` (signature T()); its result lands at the index this call
  /// returns, regardless of which worker runs it or when.
  template <typename F>
  std::size_t submit(F&& fn) PARALEON_EXCLUDES(mu_) {
    auto task = std::make_shared<std::packaged_task<T()>>(std::forward<F>(fn));
    std::size_t index;
    {
      common::MutexLock lock(mu_);
      futures_.push_back(task->get_future());
      index = futures_.size() - 1;
    }
    pool_->submit([task] { (*task)(); });
    return index;
  }

  std::size_t size() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return futures_.size();
  }

  /// Blocks until every submitted job finished, then returns the results
  /// in submission order or rethrows the first (by submission order)
  /// failure. The set is drained afterwards and may be reused.
  std::vector<T> wait_all() PARALEON_EXCLUDES(mu_) {
    std::vector<std::future<T>> pending;
    {
      // Detach the batch under the lock, then block on the futures outside
      // it so a slow job never holds up a concurrent submit().
      common::MutexLock lock(mu_);
      pending.swap(futures_);
    }
    std::vector<T> results;
    results.reserve(pending.size());
    std::exception_ptr first_error;
    obs::PoolTelemetry* const telemetry = pool_->telemetry();
    for (auto& future : pending) {
      try {
        results.push_back(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        if (telemetry != nullptr) telemetry->on_job_failure();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  ThreadPool* pool_;
  mutable common::Mutex mu_;
  std::vector<std::future<T>> futures_ PARALEON_GUARDED_BY(mu_);
};

}  // namespace paraleon::exec
