#include "obs/fleet.hpp"

#include <chrono>

// lint:allow-file(wall-clock) PoolTelemetry *is* the wall-clock layer for
// the exec pool: the pool window and the job spans measure OS scheduling,
// feed the grid document's "wall" section and the merged grid timeline,
// and never any digest. All steady_clock reads in the fleet observatory
// live in this TU; exec/thread_pool.hpp only calls the out-of-line hooks
// below.

namespace paraleon::obs {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void PoolTelemetry::attach(int workers) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  attach_ns_ = now;
  workers_ = workers;
}

void PoolTelemetry::detach() {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  if (attach_ns_ >= 0) window_ns_ = now - attach_ns_;
}

std::uint64_t PoolTelemetry::on_submit() {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  JobSpan span;
  span.job = static_cast<std::uint64_t>(spans_.size());
  span.submit_ns = now - attach_ns_;
  spans_.push_back(span);
  return span.job;
}

void PoolTelemetry::on_job_start(int worker, std::uint64_t job) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  spans_[job].worker = worker;
  spans_[job].start_ns = now - attach_ns_;
}

void PoolTelemetry::on_job_end(std::uint64_t job) {
  const std::int64_t now = wall_now_ns();
  common::MutexLock lock(mu_);
  spans_[job].end_ns = now - attach_ns_;
}

void PoolTelemetry::on_job_failure() {
  common::MutexLock lock(mu_);
  ++failure_count_;
}

int PoolTelemetry::workers() const {
  common::MutexLock lock(mu_);
  return workers_;
}

std::uint64_t PoolTelemetry::failure_count() const {
  common::MutexLock lock(mu_);
  return failure_count_;
}

std::vector<WorkerStats> PoolTelemetry::worker_stats() const {
  common::MutexLock lock(mu_);
  std::vector<WorkerStats> out(static_cast<std::size_t>(workers_));
  for (const JobSpan& s : spans_) {
    if (s.worker < 0 || s.worker >= workers_ || s.end_ns < 0) continue;
    WorkerStats& w = out[static_cast<std::size_t>(s.worker)];
    ++w.jobs;
    w.busy_ns += s.end_ns - s.start_ns;
  }
  for (WorkerStats& w : out) w.idle_ns = window_ns_ - w.busy_ns;
  return out;
}

std::vector<JobSpan> PoolTelemetry::spans() const {
  common::MutexLock lock(mu_);
  return spans_;
}

double PoolTelemetry::wall_seconds() const {
  common::MutexLock lock(mu_);
  return static_cast<double>(window_ns_) / 1e9;
}

}  // namespace paraleon::obs
