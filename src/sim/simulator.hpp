// Deterministic discrete-event engine.
//
// Events are (time, sequence, closure) triples; the sequence number makes
// same-timestamp events fire in scheduling order, so a run is a pure
// function of its seed. Storage is pooled: closures live in arena-backed
// EventNodes (a move-only UniqueFunction whose inline buffer fits every
// hot-path closure — zero heap traffic per event), ordered by a calendar
// queue tuned for the simulator's bimodal schedule horizon (see
// sim/event_queue.hpp). The kReferenceHeap backend keeps the old binary
// heap ordering alive for digest-equivalence tests.
//
// The simulator also owns the run's packet pool and observability context
// (counter registry, trace recorder, loop profiler): every component
// already holds a `Simulator*`, which makes `sim->packets()` and
// `sim->obs()` the natural owners without further plumbing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/time.hpp"
#include "common/unique_function.hpp"
#include "obs/observability.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet.hpp"

namespace paraleon::sim {

class Simulator {
 public:
  enum class QueueBackend {
    /// Production backend: pooled calendar queue (the fast path).
    kCalendar,
    /// The pre-overhaul binary-heap ordering over the same pooled nodes.
    /// Fire order is identical by construction; the determinism tests run
    /// both backends and compare run_digest to prove it.
    kReferenceHeap,
  };

  explicit Simulator(QueueBackend backend = QueueBackend::kCalendar);

  Time now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }
  std::size_t queue_depth() const {
    return backend_ == QueueBackend::kCalendar ? cal_.size() : heap_.size();
  }
  QueueBackend backend() const { return backend_; }

  /// Schedules `cb` at absolute time `t` (>= now). `tag` must be a string
  /// literal (or nullptr); it labels the event in the loop profiler and
  /// the PerfMonitor's per-event-type counts. Templated so the
  /// PerfMonitor can observe the concrete closure size before type
  /// erasure, and so the closure is moved exactly once — straight into
  /// the pooled node's inline buffer.
  template <typename F>
  void schedule_at(Time t, F&& cb, const char* tag = nullptr) {
    if (perf_->enabled()) {
      perf_->on_schedule(queue_depth(), t - now_, sizeof(std::decay_t<F>));
    }
    EventNode* n = alloc_event(t);
    n->fn.emplace(std::forward<F>(cb));
    n->tag = tag;
    enqueue_event(t, n);
  }

  /// Schedules `cb` `delta` nanoseconds from now.
  template <typename F>
  void schedule_in(Time delta, F&& cb, const char* tag = nullptr) {
    schedule_at(now_ + delta, std::forward<F>(cb), tag);
  }

  /// Runs events until the queue is empty or the clock would pass `t`;
  /// afterwards now() == t (unless the queue emptied earlier and `t` is
  /// kTimeNever).
  void run_until(Time t);

  /// Runs until the event queue is empty.
  void run() { run_until(kTimeNever); }

  bool empty() const { return queue_depth() == 0; }

  /// Timestamp of the earliest pending event (kTimeNever when the queue is
  /// empty) — the flight recorder's "event-queue head" bundle field.
  Time next_event_time() const {
    return backend_ == QueueBackend::kCalendar ? cal_.next_time()
                                               : heap_.next_time();
  }

  // ---- event-pool telemetry (deterministic; tests + docs) ----
  /// Nodes ever carved from the arena (block-granular high-water mark).
  std::size_t event_pool_capacity() const { return pool_.capacity(); }
  /// Nodes currently on the freelist; equals capacity when drained.
  std::size_t event_pool_free() const { return pool_.free_count(); }
  /// Calendar window rotations (0 under kReferenceHeap).
  std::uint64_t queue_rotations() const { return cal_.rotations(); }
  /// Entry slots the calendar's bucket slab retains (0 under
  /// kReferenceHeap): bounded by twice the peak queue depth.
  std::size_t queue_slot_capacity() const { return cal_.slot_capacity(); }

  /// Every packet in flight; nodes and links pass packets by handle.
  PacketPool& packets() { return packets_; }
  const PacketPool& packets() const { return packets_; }

  /// The run's observability context (stable address for the simulator's
  /// lifetime; counter handles and gauges registered here survive moves).
  obs::Observability& obs() { return *obs_; }
  const obs::Observability& obs() const { return *obs_; }

  /// Installs a hook invoked after every executed event with the event
  /// clock — the attachment point of the invariant checker. Null (the
  /// default) costs one predictable branch per event; pass nullptr to
  /// detach. The hook must not schedule events or mutate the network.
  void set_post_event_hook(std::function<void(Time)> hook) {
    post_event_ = std::move(hook);
  }

 private:
  // The three per-event steps stay inline at every schedule site and in
  // the loop; only the failure report is out of line.

  /// Range check + pool acquire; the caller fills fn/tag in place.
  EventNode* alloc_event(Time t) {
    if (t < now_) [[unlikely]] fail_past_schedule(t);
    return pool_.acquire();
  }
  /// Stamps the next sequence number and pushes onto the active backend.
  void enqueue_event(Time t, EventNode* n) {
    const std::uint64_t seq = next_seq_++;
    if (backend_ == QueueBackend::kCalendar) {
      cal_.push(t, seq, n);
    } else {
      heap_.push(t, seq, n);
    }
  }
  EventNode* pop_event(Time limit, Time* fired_at) {
    return backend_ == QueueBackend::kCalendar ? cal_.pop(limit, fired_at)
                                               : heap_.pop(limit, fired_at);
  }
  [[noreturn]] void fail_past_schedule(Time t) const;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  QueueBackend backend_;
  EventPool pool_;
  CalendarQueue cal_;
  ReferenceHeapQueue heap_;
  PacketPool packets_;
  std::function<void(Time)> post_event_;
  std::unique_ptr<obs::Observability> obs_;
  // Cached &obs_->perf(): schedule_at checks enabled() on every call and
  // should not chase the Observability pointer first.
  obs::PerfMonitor* perf_ = nullptr;
};

}  // namespace paraleon::sim
