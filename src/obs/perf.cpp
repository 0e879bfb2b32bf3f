#include "obs/perf.hpp"

#include <chrono>

// lint:allow-file(wall-clock) run_begin/run_end stamp the wall window the
// events/sec rate normalises against; wall data feeds the perf report's
// "wall" subsection, never any digest.

#include "obs/profile.hpp"

namespace paraleon::obs {

using common::Json;

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& tag) {
  const std::size_t dot = tag.find('.');
  return dot == std::string::npos ? tag : tag.substr(0, dot);
}

Json count_json(std::uint64_t v) { return Json::make_uint(v); }

/// The buckets up to the last nonzero one.
Json histogram_json(const std::uint64_t* buckets) {
  int last = -1;
  for (int i = 0; i < PerfMonitor::kBuckets; ++i) {
    if (buckets[i] != 0) last = i;
  }
  Json out = Json::make_array();
  for (int i = 0; i <= last; ++i) out.push_back(count_json(buckets[i]));
  return out;
}

Json counts_json(const std::map<std::string, std::uint64_t>& m) {
  Json out = Json::make_object();
  for (const auto& [name, count] : m) {
    out.members().emplace_back(name, count_json(count));
  }
  return out;
}

}  // namespace

void PerfMonitor::run_begin() {
  if (!enabled_) return;
  run_start_ns_ = wall_now_ns();
}

void PerfMonitor::run_end() {
  if (run_start_ns_ < 0) return;
  wall_ns_ += wall_now_ns() - run_start_ns_;
  run_start_ns_ = -1;
}

std::map<std::string, std::uint64_t> PerfMonitor::tags_by_name() const {
  std::map<std::string, std::uint64_t> out;
  const auto add = [&out](const char* tag, std::uint64_t count) {
    out[*tag == '\0' ? "(untagged)" : tag] += count;
  };
  for (const TagSlot& s : tag_slots_) {
    if (s.tag != nullptr) add(s.tag, s.count);
  }
  // lint:allow(unordered-iteration) pointer-keyed for hot-path speed;
  // merged into a sorted map here before any serialization.
  for (const auto& [tag, count] : tag_overflow_) add(tag, count);
  return out;
}

std::map<std::string, std::uint64_t> PerfMonitor::tags_by_layer() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [tag, count] : tags_by_name()) {
    out[layer_of(tag)] += count;
  }
  return out;
}

void PerfMonitor::reset() {
  events_executed_ = 0;
  sched_calls_ = 0;
  max_queue_depth_ = 0;
  closure_bytes_ = 0;
  closure_heap_allocs_ = 0;
  packet_enqueues_ = 0;
  packet_bytes_ = 0;
  for (int i = 0; i < kBuckets; ++i) {
    depth_log2_[i] = 0;
    horizon_log2_[i] = 0;
  }
  for (TagSlot& s : tag_slots_) s = TagSlot{};
  tag_overflow_.clear();
  wall_ns_ = 0;
  run_start_ns_ = -1;
}

Json perf_report_json(const PerfMonitor& perf, const LoopProfiler& profiler) {
  // Wall-clock subsection: run-window totals, plus the LoopProfiler's
  // per-layer wall attribution when callback timing was also enabled.
  // Everything in it is nondeterministic by design.
  std::map<std::string, std::uint64_t> layer_ns;
  if (profiler.events() > 0) {
    for (const auto& [tag, stats] : profiler.by_tag()) {
      layer_ns[layer_of(tag)] +=
          static_cast<std::uint64_t>(stats.total_ns);
    }
  }
  return Json::make_object({
      {"schema", Json::make_string("paraleon.perf.v1")},
      {"enabled", Json::make_bool(perf.enabled())},
      {"events",
       Json::make_object({
           {"executed", count_json(perf.events_executed())},
           {"scheduled", count_json(perf.events_scheduled())},
           {"max_queue_depth", count_json(perf.max_queue_depth())},
           {"by_tag", counts_json(perf.tags_by_name())},
           {"by_layer", counts_json(perf.tags_by_layer())},
       })},
      {"queue_depth_log2", histogram_json(perf.depth_histogram())},
      {"schedule_horizon_log2_ns", histogram_json(perf.horizon_histogram())},
      {"alloc",
       Json::make_object({
           {"closure_bytes", count_json(perf.closure_bytes())},
           {"closure_heap_allocs", count_json(perf.closure_heap_allocs())},
           {"packet_enqueues", count_json(perf.packet_enqueues())},
           {"packet_bytes", count_json(perf.packet_bytes())},
       })},
      {"wall",
       Json::make_object({
           {"seconds", Json::make_number(perf.wall_seconds())},
           {"events_per_sec", Json::make_number(perf.events_per_sec())},
           {"profiled_layer_ns", counts_json(layer_ns)},
       })},
  });
}

}  // namespace paraleon::obs
