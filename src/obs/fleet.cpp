#include "obs/fleet.hpp"

#include <chrono>

// lint:allow-file(wall-clock) PoolTelemetry *is* the wall-clock layer for
// the exec pool: busy/idle accounting, queue-wait latency, and job spans
// measure OS scheduling, feed the grid document's "wall" section and the
// merged grid timeline, and never any digest. All steady_clock reads in
// the fleet observatory live in this TU; exec/thread_pool.hpp only calls
// the out-of-line hooks below.

#include <algorithm>

#include "obs/perf.hpp"

namespace paraleon::obs {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int PoolTelemetry::bucket_log2(std::int64_t v) {
  static_assert(kBuckets == PerfMonitor::kBuckets,
                "fleet and perf histograms share one bucketing convention");
  return PerfMonitor::bucket_log2(v);
}

void PoolTelemetry::attach(int workers) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  if (epoch_ns_ < 0) epoch_ns_ = now;
  if (workers > static_cast<int>(workers_.size())) {
    workers_.resize(static_cast<std::size_t>(workers));
    last_active_ns_.resize(static_cast<std::size_t>(workers), 0);
  }
  // A fresh pool's workers start idle from its attach, not from the last
  // pool's drain: restart every idle baseline at the attach instant.
  const std::int64_t rel = now - epoch_ns_;
  for (auto& last : last_active_ns_) last = rel;
}

void PoolTelemetry::detach() {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  if (epoch_ns_ < 0) return;
  const std::int64_t rel = now - epoch_ns_;
  // The drain tail: time between each worker's last job end and the join
  // is idle time spent waiting for siblings to finish.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (rel > last_active_ns_[w]) {
      workers_[w].idle_ns += rel - last_active_ns_[w];
      last_active_ns_[w] = rel;
    }
  }
  if (rel > window_ns_) window_ns_ = rel;
}

std::uint64_t PoolTelemetry::on_submit() {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  JobSpan span;
  span.job = static_cast<std::uint64_t>(spans_.size());
  span.submit_ns = epoch_ns_ < 0 ? 0 : now - epoch_ns_;
  spans_.push_back(span);
  return span.job;
}

void PoolTelemetry::on_job_start(int worker, std::uint64_t job) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  if (epoch_ns_ < 0 || job >= spans_.size()) return;
  const std::int64_t rel = now - epoch_ns_;
  JobSpan& span = spans_[job];
  span.worker = worker;
  span.start_ns = rel;
  const std::int64_t wait_ns =
      span.submit_ns >= 0 ? rel - span.submit_ns : 0;
  ++queue_wait_log2_us_[bucket_log2(wait_ns / 1000)];
  if (worker >= 0 && worker < static_cast<int>(workers_.size())) {
    const auto w = static_cast<std::size_t>(worker);
    if (rel > last_active_ns_[w]) {
      workers_[w].idle_ns += rel - last_active_ns_[w];
    }
    last_active_ns_[w] = rel;
  }
}

void PoolTelemetry::on_job_end(int worker, std::uint64_t job) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  if (epoch_ns_ < 0 || job >= spans_.size()) return;
  const std::int64_t rel = now - epoch_ns_;
  JobSpan& span = spans_[job];
  span.end_ns = rel;
  ++completed_;
  if (worker >= 0 && worker < static_cast<int>(workers_.size())) {
    const auto w = static_cast<std::size_t>(worker);
    ++workers_[w].jobs;
    if (span.start_ns >= 0 && rel > span.start_ns) {
      workers_[w].busy_ns += rel - span.start_ns;
    }
    if (rel > last_active_ns_[w]) last_active_ns_[w] = rel;
  }
}

void PoolTelemetry::on_job_failure(std::uint64_t job,
                                   const std::string& message) {
  common::MutexLock lock(mu_);
  ++failure_count_;
  if (failures_.size() < kMaxFailureMessages) {
    failures_.push_back(JobFailure{job, message});
  }
}

int PoolTelemetry::workers() const {
  common::MutexLock lock(mu_);
  return static_cast<int>(workers_.size());
}

std::uint64_t PoolTelemetry::jobs_submitted() const {
  common::MutexLock lock(mu_);
  return static_cast<std::uint64_t>(spans_.size());
}

std::uint64_t PoolTelemetry::jobs_completed() const {
  common::MutexLock lock(mu_);
  return completed_;
}

std::uint64_t PoolTelemetry::failure_count() const {
  common::MutexLock lock(mu_);
  return failure_count_;
}

std::vector<JobFailure> PoolTelemetry::failures() const {
  common::MutexLock lock(mu_);
  return failures_;
}

std::vector<WorkerStats> PoolTelemetry::worker_stats() const {
  common::MutexLock lock(mu_);
  return workers_;
}

std::vector<JobSpan> PoolTelemetry::spans() const {
  common::MutexLock lock(mu_);
  return spans_;
}

std::vector<std::uint64_t> PoolTelemetry::queue_wait_log2_us() const {
  common::MutexLock lock(mu_);
  return std::vector<std::uint64_t>(queue_wait_log2_us_,
                                    queue_wait_log2_us_ + kBuckets);
}

double PoolTelemetry::wall_seconds() const {
  common::MutexLock lock(mu_);
  return static_cast<double>(window_ns_) / 1e9;
}

void PoolTelemetry::reset() {
  common::MutexLock lock(mu_);
  epoch_ns_ = -1;
  window_ns_ = 0;
  workers_.clear();
  last_active_ns_.clear();
  spans_.clear();
  completed_ = 0;
  failure_count_ = 0;
  failures_.clear();
  std::fill(queue_wait_log2_us_, queue_wait_log2_us_ + kBuckets, 0);
}

}  // namespace paraleon::obs
