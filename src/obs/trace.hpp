// Structured event tracing: category-filtered, bounded ring-buffer trace
// events emitted as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing).
//
// Categories map to the subsystems the paper's debugging stories need to
// correlate: packet lifecycle, PFC pause/resume spans, DCQCN RP state
// transitions, monitor reads, and SA candidate trials. Every category is
// off by default; a disabled category costs one branch at the emit site.
// Timestamps are simulated time, so a trace is a pure function of the run
// seed — the determinism test compares dumps byte-for-byte.
// Lock discipline (compiler-checked): the ring and its cursors are
// mutex-guarded; the category mask is a relaxed atomic so the emit-site
// fast path `enabled(c)` stays a single load with no lock, exactly as
// cheap as before.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/time.hpp"

namespace paraleon::obs {

enum class TraceCategory : std::uint32_t {
  kPacket = 1u << 0,   // per-packet transmit / drop / ECN mark
  kPfc = 1u << 1,      // pause/resume spans and XOFF/XON frames
  kRp = 1u << 2,       // DCQCN RP transitions (cuts, parameter installs)
  kMonitor = 1u << 3,  // monitor-interval collections
  kSa = 1u << 4,       // tuning episodes and candidate trials
};

const char* trace_category_name(TraceCategory c);

struct TraceConfig {
  bool packet = false;
  bool pfc = false;
  bool rp = false;
  bool monitor = false;
  bool sa = false;
  /// Ring-buffer bound: at most this many events are retained; older
  /// events are overwritten (and counted as dropped).
  std::size_t capacity = 1u << 16;

  static TraceConfig all_on(std::size_t capacity = 1u << 18) {
    TraceConfig c;
    c.packet = c.pfc = c.rp = c.monitor = c.sa = true;
    c.capacity = capacity;
    return c;
  }
};

/// One key/value pair attached to a trace event. Keys must be string
/// literals (the recorder stores the pointer, not a copy).
struct TraceArg {
  const char* key = "";
  std::int64_t value = 0;
};

struct TraceEvent {
  const char* name = "";  // string literal; stored by pointer
  TraceCategory cat = TraceCategory::kPacket;
  char ph = 'i';  // Chrome phase: 'i' instant, 'X' complete, 'B'/'E' span
  Time ts = 0;
  Time dur = 0;           // 'X' only
  std::int64_t pid = 0;   // node id
  std::int64_t tid = 0;   // port / lane within the node
  int n_args = 0;
  TraceArg args[3];
};

class TraceRecorder {
 public:
  void configure(const TraceConfig& cfg) PARALEON_EXCLUDES(mu_);

  /// The emit-site fast path: one relaxed load + mask test.
  bool enabled(TraceCategory c) const {
    return (mask_.load(std::memory_order_relaxed) &
            static_cast<std::uint32_t>(c)) != 0u;
  }
  bool any_enabled() const {
    return mask_.load(std::memory_order_relaxed) != 0u;
  }

  void instant(TraceCategory c, const char* name, Time ts, std::int64_t pid,
               std::int64_t tid, std::initializer_list<TraceArg> args = {});
  /// A span known only at completion time: [ts, ts + dur].
  void complete(TraceCategory c, const char* name, Time ts, Time dur,
                std::int64_t pid, std::int64_t tid,
                std::initializer_list<TraceArg> args = {});
  /// Open/close a span whose end is not known at the start ('B'/'E').
  void begin_span(TraceCategory c, const char* name, Time ts,
                  std::int64_t pid, std::int64_t tid,
                  std::initializer_list<TraceArg> args = {});
  void end_span(TraceCategory c, const char* name, Time ts, std::int64_t pid,
                std::int64_t tid);

  /// Events currently retained (<= capacity).
  std::size_t recorded() const PARALEON_EXCLUDES(mu_);
  /// Events emitted over the run, including overwritten ones.
  std::uint64_t total() const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return total_;
  }
  std::uint64_t dropped() const {
    common::MutexLock lock(mu_);
    return total_ - static_cast<std::uint64_t>(ring_.size());
  }

  void clear() PARALEON_EXCLUDES(mu_);

  /// Iterates retained events oldest-first (the digest input). The ring
  /// lock is held across the whole walk; `fn` must not call back into
  /// this recorder.
  template <class Fn>
  void for_each(Fn&& fn) const PARALEON_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) fn(at_oldest_first(i));
  }

  /// Chrome trace-event JSON, one event per line. Deterministic: fixed
  /// field order, microsecond timestamps exact to the nanosecond.
  std::string to_json() const;

 private:
  const TraceEvent& at_oldest_first(std::size_t i) const
      PARALEON_REQUIRES(mu_);
  void push(const TraceEvent& ev) PARALEON_EXCLUDES(mu_);
  void clear_locked() PARALEON_REQUIRES(mu_);

  std::atomic<std::uint32_t> mask_{0};
  mutable common::Mutex mu_;
  std::size_t capacity_ PARALEON_GUARDED_BY(mu_) = 1u << 16;
  std::vector<TraceEvent> ring_ PARALEON_GUARDED_BY(mu_);
  // Write position once the ring is full.
  std::size_t next_ PARALEON_GUARDED_BY(mu_) = 0;
  // Lifetime pushes.
  std::uint64_t total_ PARALEON_GUARDED_BY(mu_) = 0;
};

}  // namespace paraleon::obs
