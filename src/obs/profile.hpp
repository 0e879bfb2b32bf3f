// Wall-clock self-profiling of the simulator loop: events/s and a per-tag
// log2 latency histogram over event callbacks.
//
// Event schedule sites may attach a static-string tag; the profiler groups
// callback wall times by tag so a slow run answers "which event type eats
// the time" directly. Everything here is wall-clock and therefore
// nondeterministic — the results feed perfbench's per-layer rows, never
// the run digest or the counter dump.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace paraleon::obs {

class LoopProfiler {
 public:
  /// Histogram bucket i counts callbacks with wall time in
  /// [2^i, 2^(i+1)) ns; the last bucket absorbs everything slower.
  static constexpr int kBuckets = 24;  // up to ~8.4 ms

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// `tag` must be a string literal (or otherwise outlive the profiler);
  /// nullptr means "untagged".
  void record(const char* tag, std::int64_t wall_ns);

  struct TagStats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;
    std::uint64_t buckets[kBuckets] = {};
  };

  std::uint64_t events() const { return events_; }
  double wall_seconds() const {
    return static_cast<double>(total_ns_) / 1e9;
  }
  /// Mean event throughput over the profiled callbacks (0 if none ran).
  double events_per_sec() const {
    return total_ns_ == 0 ? 0.0
                          : static_cast<double>(events_) * 1e9 /
                                static_cast<double>(total_ns_);
  }

  /// Per-tag stats merged by tag text, keyed by tag.
  std::map<std::string, TagStats> by_tag() const;

  void reset();

 private:
  bool enabled_ = false;
  std::uint64_t events_ = 0;
  std::int64_t total_ns_ = 0;
  // Pointer-keyed on the tag literal for speed; merged by text on report.
  std::unordered_map<const char*, TagStats> tags_;
};

}  // namespace paraleon::obs
