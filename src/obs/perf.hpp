// Always-cheap event-loop performance telemetry: the measurement substrate
// the hot-path speed work (the ROADMAP's performance aim) is judged
// against.
//
// PerfMonitor keeps two strictly separated kinds of data:
//
//   * Deterministic counters — events scheduled/executed, log2 histograms
//     of event-queue depth and schedule horizon, per-event-type (tag)
//     event counts, the event-closure allocation counters, and the
//     packet-hop count (egress-queue enqueues). These are pure functions
//     of the seed: enabling them changes no simulated behavior and never
//     perturbs run_digest.
//   * Wall-clock totals — run wall seconds stamped once per run_until
//     call (never per event), giving events/sec. Wall data feeds the
//     "wall" subsection of the perf report only; it is NEVER digested
//     (the LoopProfiler discipline).
//
// Cost contract: every hot-path hook is a single predictable branch when
// the monitor is disabled, and a handful of integer ops when enabled —
// measured at <2% event-loop overhead by bench_micro_components
// (metric `event_loop_perf_overhead_pct`, gated by tools/bench_trend.py).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "common/json.hpp"
#include "common/unique_function.hpp"

namespace paraleon::obs {

class LoopProfiler;

class PerfMonitor {
 public:
  /// Histogram bucket 0 counts zero values; bucket i >= 1 counts values
  /// in [2^(i-1), 2^i). The last bucket absorbs everything larger.
  static constexpr int kBuckets = 40;

  /// The event engine's UniqueFunction inline buffer: closures larger
  /// than this heap-allocate when type-erased into a pooled event node.
  /// Matching the engine's capacity exactly makes closure_heap_allocs the
  /// regression gate for the zero-alloc hot-path contract (a grown
  /// closure shows up as a nonzero count, gated in BENCH_fig8.json).
  static constexpr std::size_t kClosureSboBytes =
      common::UniqueFunction::kInlineBytes;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // ---- hot-path hooks (deterministic; one branch each when disabled) ----

  /// At schedule time: queue depth before the push, the schedule horizon
  /// (event time minus now, ns) and sizeof the closure being type-erased.
  void on_schedule(std::size_t depth, std::int64_t horizon_ns,
                   std::size_t closure_bytes) {
    if (!enabled_) return;
    ++sched_calls_;
    closure_bytes_ += static_cast<std::uint64_t>(closure_bytes);
    if (closure_bytes > kClosureSboBytes) ++closure_heap_allocs_;
    ++horizon_log2_[bucket_log2(horizon_ns)];
    if (depth + 1 > max_queue_depth_) max_queue_depth_ = depth + 1;
  }

  /// After an event is popped: the depth of the remaining queue.
  void on_execute(std::size_t depth) {
    if (!enabled_) return;
    ++events_executed_;
    ++depth_log2_[bucket_log2(static_cast<std::int64_t>(depth))];
  }

  /// Per-event-type attribution: `tag` is the profiling-tag literal the
  /// schedule site attached. Pointer-keyed for speed, merged by text at
  /// report time: a run uses a dozen or so literals, so they fit a small
  /// open-addressed slot array hashed on the pointer, and the hot tags
  /// land on their first probe. Tags past the slot array (never seen in
  /// practice) fall back to a map.
  void count_tag(const char* tag) {
    if (!enabled_ || tag == nullptr) return;
    const std::size_t home = static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(tag) * 0x9E3779B97F4A7C15ull) >>
        (64 - kTagSlotBits));
    for (std::size_t probe = 0; probe < kTagSlots; ++probe) {
      TagSlot& s = tag_slots_[(home + probe) & (kTagSlots - 1)];
      if (s.tag == tag) {
        ++s.count;
        return;
      }
      if (s.tag == nullptr) {
        s.tag = tag;
        s.count = 1;
        return;
      }
    }
    ++tag_overflow_[tag];
  }

  /// A packet entered a NetDevice egress queue: one packet-hop.
  void on_packet_enqueue(std::uint32_t bytes) {
    if (!enabled_) return;
    ++packet_enqueues_;
    packet_bytes_ += bytes;
  }

  // ---- run wall window (stamped per run_until call, not per event) ----
  void run_begin();
  void run_end();

  // ---- accessors (deterministic unless noted) ----
  std::uint64_t events_executed() const { return events_executed_; }
  std::uint64_t events_scheduled() const { return sched_calls_; }
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  std::uint64_t closure_bytes() const { return closure_bytes_; }
  std::uint64_t closure_heap_allocs() const { return closure_heap_allocs_; }
  std::uint64_t packet_enqueues() const { return packet_enqueues_; }
  std::uint64_t packet_bytes() const { return packet_bytes_; }
  const std::uint64_t* depth_histogram() const { return depth_log2_; }
  const std::uint64_t* horizon_histogram() const { return horizon_log2_; }
  /// Per-tag executed-event counts merged by tag text, sorted.
  std::map<std::string, std::uint64_t> tags_by_name() const;
  /// Per-layer counts: a tag's layer is its prefix up to the first '.'.
  std::map<std::string, std::uint64_t> tags_by_layer() const;

  /// Wall-clock seconds accumulated across run windows (nondeterministic;
  /// 0 while disabled or before the first run_end).
  double wall_seconds() const {
    return static_cast<double>(wall_ns_) / 1e9;
  }
  /// Mean executed-event throughput over the wall windows (0 if unknown).
  double events_per_sec() const {
    return wall_ns_ <= 0 ? 0.0
                         : static_cast<double>(events_executed_) * 1e9 /
                               static_cast<double>(wall_ns_);
  }

  void reset();

  /// Log2 bucket index: 0 for v <= 0, otherwise bit_width clamped to the
  /// last bucket (so bucket i >= 1 covers [2^(i-1), 2^i)).
  static int bucket_log2(std::int64_t v) {
    if (v <= 0) return 0;
    const int w =
        static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
    return w < kBuckets ? w : kBuckets - 1;
  }

 private:
  bool enabled_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t sched_calls_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t closure_bytes_ = 0;
  std::uint64_t closure_heap_allocs_ = 0;
  std::uint64_t packet_enqueues_ = 0;
  std::uint64_t packet_bytes_ = 0;
  std::uint64_t depth_log2_[kBuckets] = {};
  std::uint64_t horizon_log2_[kBuckets] = {};
  static constexpr int kTagSlotBits = 5;
  static constexpr std::size_t kTagSlots = std::size_t{1} << kTagSlotBits;
  struct TagSlot {
    const char* tag = nullptr;
    std::uint64_t count = 0;
  };
  TagSlot tag_slots_[kTagSlots] = {};
  std::unordered_map<const char*, std::uint64_t> tag_overflow_;
  // Wall window state (run_begin/run_end in perf.cpp keep the clock reads
  // out of this header).
  std::int64_t wall_ns_ = 0;
  std::int64_t run_start_ns_ = -1;
};

/// The "perf" section of runner::obs_report_json (schema paraleon.perf.v1):
/// the monitor's deterministic counters plus a "wall" subsection combining
/// the monitor's run-window totals with the LoopProfiler's per-tag wall
/// attribution when that ran too. Only the "wall" subsection is
/// nondeterministic; with the monitor disabled the whole section is a
/// constant all-zero stub, so byte-identical obs reports stay identical.
common::Json perf_report_json(const PerfMonitor& perf,
                              const LoopProfiler& profiler);

}  // namespace paraleon::obs
