// Fleet observatory: exec-layer telemetry for the worker pool.
//
// A single run is observable through its obs report; this layer watches
// the pool that runs many of them. PoolTelemetry is the record of one
// exec::ThreadPool: its attach -> detach wall window, one span per job
// (submit / start / end, and the worker that ran it) and a count of the
// jobs whose result surfaced an exception. Per-worker job counts and
// busy/idle time are derived from the spans and the window on demand.
//
// Everything here is wall-clock data about OS scheduling, so none of it
// is deterministic and none of it may ever feed run_digest. The grid
// document (scenario::GridOutcome) segregates it under a "wall" section
// the same way paraleon.perf.v1 and paraleon.bench.v1 do; the
// deterministic cross-run surfaces (per-cell digests, aggregated
// counters) never pass through this class. All clock reads live in
// fleet.cpp — the hooks the pool calls are out-of-line on purpose,
// keeping the wall-clock lint waiver confined to one TU (same pattern as
// perf.cpp).
//
// Concurrency: hooks are called from every worker plus the submitting
// thread, so state is mutex-guarded (compiler-checked). The cost is one
// lock per *job*, not per event — jobs are whole Experiments, seconds
// long, so contention is unmeasurable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace paraleon::obs {

/// One pool job's life cycle, nanoseconds relative to the pool's attach.
/// -1 = stage not reached.
struct JobSpan {
  std::uint64_t job = 0;  // submission index (issue order)
  int worker = -1;        // worker that ran it; -1 while queued
  std::int64_t submit_ns = -1;
  std::int64_t start_ns = -1;
  std::int64_t end_ns = -1;
};

/// Per-worker accounting: jobs completed, busy wall time inside jobs,
/// idle wall time for the rest of the pool window (busy + idle = window).
struct WorkerStats {
  std::uint64_t jobs = 0;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
};

class PoolTelemetry {
 public:
  // ---- hooks (called by exec::ThreadPool / exec::JobSet) ----

  /// A pool with `workers` threads started reporting here; its window
  /// starts now. One telemetry records one pool.
  void attach(int workers) PARALEON_EXCLUDES(mu_);
  /// The pool drained and joined: its window ends now.
  void detach() PARALEON_EXCLUDES(mu_);

  /// A job was enqueued; returns its submission index.
  std::uint64_t on_submit() PARALEON_EXCLUDES(mu_);
  /// Worker `worker` dequeued job `job` (queue wait ends, busy begins).
  void on_job_start(int worker, std::uint64_t job) PARALEON_EXCLUDES(mu_);
  void on_job_end(std::uint64_t job) PARALEON_EXCLUDES(mu_);
  /// A job's result surfaced an exception in JobSet::wait_all.
  void on_job_failure() PARALEON_EXCLUDES(mu_);

  // ---- accessors (post-run; nondeterministic except failure counts) ----

  int workers() const PARALEON_EXCLUDES(mu_);
  std::uint64_t failure_count() const PARALEON_EXCLUDES(mu_);
  /// Per worker: the jobs it completed and their summed span time; idle
  /// is the rest of the attach -> detach window.
  std::vector<WorkerStats> worker_stats() const PARALEON_EXCLUDES(mu_);
  /// All spans, in submission order.
  std::vector<JobSpan> spans() const PARALEON_EXCLUDES(mu_);
  /// The attach -> detach window (0 before the detach).
  double wall_seconds() const PARALEON_EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_;
  std::int64_t attach_ns_ PARALEON_GUARDED_BY(mu_) = -1;  // absolute
  std::int64_t window_ns_ PARALEON_GUARDED_BY(mu_) = 0;
  int workers_ PARALEON_GUARDED_BY(mu_) = 0;
  std::vector<JobSpan> spans_ PARALEON_GUARDED_BY(mu_);
  std::uint64_t failure_count_ PARALEON_GUARDED_BY(mu_) = 0;
};

}  // namespace paraleon::obs
