#include "sim/simulator.hpp"

#include <chrono>
#include <cstdlib>

// lint:allow-file(wall-clock) this TU is the LoopProfiler's measuring
// site: callback wall times feed LoopProfiler::by_tag, never any digest.

#include "check/check.hpp"

namespace paraleon::sim {

Simulator::Simulator(QueueBackend backend)
    : backend_(backend), obs_(std::make_unique<obs::Observability>()),
      perf_(&obs_->perf()) {
  // The engine registers its own observables like every other layer.
  obs::Registry& reg = obs_->registry();
  reg.gauge("sim.events_executed",
            [this] { return static_cast<double>(executed_); });
  reg.gauge("sim.event_queue_depth",
            [this] { return static_cast<double>(queue_depth()); });
  reg.gauge("sim.now_ms", [this] { return to_ms(now_); });
}

void Simulator::fail_past_schedule(Time t) const {
  PARALEON_CHECK(t >= now_, "cannot schedule into the past: t=", t,
                 " now=", now_);
  // The check above always fails here; this keeps [[noreturn]] honest.
  std::abort();
}

void Simulator::run_until(Time t) {
  // Profiling and perf counting are toggled between runs, never inside
  // one — hoist both tests out of the loop.
  const bool profiled = obs_->profiler().enabled();
  obs::PerfMonitor& perf = obs_->perf();
  const bool counted = perf.enabled();
  if (counted) perf.run_begin();
  // The hook, too, only changes between runs (its contract forbids
  // scheduling or mutation from inside the loop).
  const bool hooked = static_cast<bool>(post_event_);
  Time fired = 0;
  // The node is released only after its closure returns: events it
  // schedules acquire fresh nodes while this one is still live.
  while (EventNode* n = pop_event(t, &fired)) {
    now_ = fired;
    ++executed_;
    if (counted) {
      perf.on_execute(queue_depth());
      perf.count_tag(n->tag);
    }
    if (profiled) {
      const auto t0 = std::chrono::steady_clock::now();
      n->fn();
      const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      obs_->profiler().record(n->tag, wall);
    } else {
      n->fn();
    }
    pool_.release(n);
    if (hooked) post_event_(now_);
  }
  if (counted) perf.run_end();
  if (t != kTimeNever && now_ < t) now_ = t;
}

}  // namespace paraleon::sim
