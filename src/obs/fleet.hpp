// Fleet observatory: exec-layer telemetry for the worker pool.
//
// PRs 2/3/6 made a *single* run observable; this layer watches the layer
// that runs many of them. PoolTelemetry is the per-sweep accounting object
// an exec::ThreadPool reports into: per-worker job counts and busy/idle
// wall time, a queue-wait latency histogram, one span per job (submit /
// start / end), and every job failure (count + first N messages — the
// JobSet used to silently drop all but the first-submitted exception).
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

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace paraleon::obs {

/// One pool job's life cycle, nanoseconds relative to the telemetry
/// epoch (the first attach). -1 = stage not reached.
struct JobSpan {
  std::uint64_t job = 0;  // submission index (issue order)
  int worker = -1;        // worker that ran it; -1 while queued
  std::int64_t submit_ns = -1;
  std::int64_t start_ns = -1;
  std::int64_t end_ns = -1;
};

/// Per-worker accounting: jobs completed, busy wall time inside jobs,
/// idle wall time between them (queue waits, pool drain tail).
struct WorkerStats {
  std::uint64_t jobs = 0;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
};

struct JobFailure {
  std::uint64_t job = 0;  // submission index within the failing batch
  std::string message;
};

/// Speculation accounting for exec::ShadowFleet: how much shadow work the
/// batched SA episode bought and wasted versus the serial chain. Pure
/// function of window + config (simulated-event totals, not wall time).
struct SpeculationStats {
  std::int64_t proposed = 0;   // candidates from propose_batch
  std::int64_t evaluated = 0;  // shadow experiments run (incl. the seed)
  std::int64_t accepted = 0;   // Metropolis-accepted candidates
  /// Evaluated but discarded: the SA schedule finished mid-batch, so the
  /// remaining sibling measurements never reached the Metropolis test.
  std::int64_t wasted = 0;
  std::uint64_t events_total = 0;   // simulator events across shadow runs
  std::uint64_t events_wasted = 0;  // events of the discarded runs
};

class PoolTelemetry {
 public:
  /// Same log2 bucketing as PerfMonitor: bucket 0 counts zero, bucket
  /// i >= 1 counts [2^(i-1), 2^i), last bucket absorbs the rest. The
  /// queue-wait histogram is in microseconds.
  static constexpr int kBuckets = 40;
  /// Failure messages retained verbatim; later failures only count.
  static constexpr std::size_t kMaxFailureMessages = 8;

  // ---- hooks (called by exec::ThreadPool / exec::JobSet) ----

  /// A pool with `workers` threads started reporting here. The first
  /// attach stamps the telemetry epoch; later attaches (sequential pools,
  /// e.g. one per ShadowFleet batch) accumulate into the same stats.
  /// Concurrent pools must not share one PoolTelemetry.
  void attach(int workers) PARALEON_EXCLUDES(mu_);
  /// The pool drained and joined: finalizes per-worker idle tails and
  /// extends the wall window.
  void detach() PARALEON_EXCLUDES(mu_);

  /// A job was enqueued; returns its submission index.
  std::uint64_t on_submit() PARALEON_EXCLUDES(mu_);
  /// Worker `worker` dequeued job `job` (queue wait ends, busy begins).
  void on_job_start(int worker, std::uint64_t job) PARALEON_EXCLUDES(mu_);
  void on_job_end(int worker, std::uint64_t job) PARALEON_EXCLUDES(mu_);
  /// A job's result surfaced an exception in JobSet::wait_all. `job` is
  /// the pool submission index; every failure is counted, the first
  /// kMaxFailureMessages keep their message.
  void on_job_failure(std::uint64_t job, const std::string& message)
      PARALEON_EXCLUDES(mu_);

  // ---- accessors (post-run; nondeterministic except failure counts) ----

  int workers() const PARALEON_EXCLUDES(mu_);
  std::uint64_t jobs_submitted() const PARALEON_EXCLUDES(mu_);
  std::uint64_t jobs_completed() const PARALEON_EXCLUDES(mu_);
  std::uint64_t failure_count() const PARALEON_EXCLUDES(mu_);
  /// The retained failure messages in submission order.
  std::vector<JobFailure> failures() const PARALEON_EXCLUDES(mu_);
  std::vector<WorkerStats> worker_stats() const PARALEON_EXCLUDES(mu_);
  /// All spans, sorted by submission index.
  std::vector<JobSpan> spans() const PARALEON_EXCLUDES(mu_);
  /// Queue-wait (submit -> start) log2 histogram, microseconds.
  std::vector<std::uint64_t> queue_wait_log2_us() const
      PARALEON_EXCLUDES(mu_);
  /// Wall window: first attach -> last detach (0 before the first
  /// detach). Busy + idle of every worker lands inside this window.
  double wall_seconds() const PARALEON_EXCLUDES(mu_);

  void reset() PARALEON_EXCLUDES(mu_);

  /// Log2 bucket index (shared with PerfMonitor's convention).
  static int bucket_log2(std::int64_t v);

 private:
  mutable common::Mutex mu_;
  std::int64_t epoch_ns_ PARALEON_GUARDED_BY(mu_) = -1;   // absolute
  std::int64_t window_ns_ PARALEON_GUARDED_BY(mu_) = 0;   // epoch->detach
  std::vector<WorkerStats> workers_ PARALEON_GUARDED_BY(mu_);
  // Per-worker end of the last accounted activity, relative to epoch.
  std::vector<std::int64_t> last_active_ns_ PARALEON_GUARDED_BY(mu_);
  std::vector<JobSpan> spans_ PARALEON_GUARDED_BY(mu_);
  std::uint64_t completed_ PARALEON_GUARDED_BY(mu_) = 0;
  std::uint64_t failure_count_ PARALEON_GUARDED_BY(mu_) = 0;
  std::vector<JobFailure> failures_ PARALEON_GUARDED_BY(mu_);
  std::uint64_t queue_wait_log2_us_[kBuckets] PARALEON_GUARDED_BY(mu_) = {};
};

}  // namespace paraleon::obs
