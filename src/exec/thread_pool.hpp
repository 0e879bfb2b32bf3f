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
// each worker has a stable index, each job a pool-wide submission id, and
// the pool calls the telemetry hooks around every job so the grid document
// can reconstruct per-worker utilization, queue-wait latency, and a
// merged grid timeline. The hooks are out-of-line calls into
// obs/fleet.cpp — this header performs no clock reads itself, keeping the
// wall-clock lint waiver confined to that TU. A null telemetry pointer
// costs one predictable branch per job.
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
#include <string>
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
  /// non-null the pool attaches to it for its whole lifetime; sequential
  /// pools may share one telemetry (ShadowFleet's per-batch pools do),
  /// concurrent pools must not.
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
    // idle tails and wall window can be finalized.
    if (telemetry_ != nullptr) telemetry_->detach();
  }

  int workers() const { return static_cast<int>(threads_.size()); }

  obs::PoolTelemetry* telemetry() const { return telemetry_; }

  /// Enqueues a job and returns its pool-wide submission id (the span id
  /// in the fleet telemetry; a plain local counter when untracked). The
  /// pool never drops jobs; everything enqueued before destruction runs
  /// to completion (the destructor only stops the intake).
  std::uint64_t submit(std::function<void()> job) PARALEON_EXCLUDES(mu_) {
    std::uint64_t id = 0;
    if (telemetry_ != nullptr) id = telemetry_->on_submit();
    {
      common::MutexLock lock(mu_);
      if (telemetry_ == nullptr) id = next_id_++;
      queue_.push_back(Job{std::move(job), id});
    }
    cv_.notify_one();
    return id;
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
    std::uint64_t id = 0;
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
      if (telemetry_ != nullptr) telemetry_->on_job_start(worker, job.id);
      job.fn();
      if (telemetry_ != nullptr) telemetry_->on_job_end(worker, job.id);
    }
  }

  common::Mutex mu_;
  common::CondVar cv_;
  std::deque<Job> queue_ PARALEON_GUARDED_BY(mu_);
  bool stopping_ PARALEON_GUARDED_BY(mu_) = false;
  std::uint64_t next_id_ PARALEON_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_;
  obs::PoolTelemetry* telemetry_;
};

/// A batch of jobs whose results come back in submission order, so callers
/// observe scheduling-independent output. Exceptions propagate: wait_all()
/// finishes every job, records EVERY failure (count plus the first
/// obs::PoolTelemetry::kMaxFailureMessages messages, forwarded to the
/// pool's telemetry when one is attached), then rethrows the exception of
/// the earliest submitted job that failed. Nothing is silently dropped any
/// more: later failures survive as counted, messaged records even though
/// only the first propagates as an exception.
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
      // The pool submit happens under the set lock so futures_ and ids_
      // stay index-aligned under concurrent producers (pool and set use
      // different mutexes; the pool never takes this one).
      common::MutexLock lock(mu_);
      futures_.push_back(task->get_future());
      index = futures_.size() - 1;
      ids_.push_back(pool_->submit([task] { (*task)(); }));
    }
    return index;
  }

  std::size_t size() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return futures_.size();
  }

  /// Blocks until every submitted job finished, then returns the results
  /// in submission order or rethrows the first (by submission order)
  /// failure. The set is drained afterwards and may be reused; failure
  /// records accumulate across batches.
  std::vector<T> wait_all() PARALEON_EXCLUDES(mu_) {
    std::vector<std::future<T>> pending;
    std::vector<std::uint64_t> ids;
    {
      // Detach the batch under the lock, then block on the futures outside
      // it so a slow job never holds up a concurrent submit().
      common::MutexLock lock(mu_);
      pending.swap(futures_);
      ids.swap(ids_);
    }
    std::vector<T> results;
    results.reserve(pending.size());
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      try {
        results.push_back(pending[i].get());
      } catch (const std::exception& e) {
        if (!first_error) first_error = std::current_exception();
        record_failure(ids[i], e.what());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        record_failure(ids[i], "(non-std exception)");
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Failures seen by wait_all so far (all of them, not just the one that
  /// was rethrown).
  std::uint64_t failure_count() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return failure_count_;
  }

  /// The first kMaxFailureMessages failure records, in submission order
  /// within each batch. `job` is the pool-wide submission id.
  std::vector<obs::JobFailure> failures() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return failures_;
  }

 private:
  void record_failure(std::uint64_t pool_job, const std::string& message)
      PARALEON_EXCLUDES(mu_) {
    {
      common::MutexLock lock(mu_);
      ++failure_count_;
      if (failures_.size() < obs::PoolTelemetry::kMaxFailureMessages) {
        failures_.push_back(obs::JobFailure{pool_job, message});
      }
    }
    if (pool_->telemetry() != nullptr) {
      pool_->telemetry()->on_job_failure(pool_job, message);
    }
  }

  ThreadPool* pool_;
  mutable common::Mutex mu_;
  std::vector<std::future<T>> futures_ PARALEON_GUARDED_BY(mu_);
  // Pool submission id of futures_[i]; maps a failed result back to its
  // telemetry span.
  std::vector<std::uint64_t> ids_ PARALEON_GUARDED_BY(mu_);
  std::uint64_t failure_count_ PARALEON_GUARDED_BY(mu_) = 0;
  std::vector<obs::JobFailure> failures_ PARALEON_GUARDED_BY(mu_);
};

}  // namespace paraleon::exec
