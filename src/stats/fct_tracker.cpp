#include "stats/fct_tracker.hpp"

#include <algorithm>
#include <limits>

#include "check/check.hpp"
#include "stats/percentile.hpp"

namespace paraleon::stats {

void FctTracker::on_flow_start(std::uint64_t flow_id, std::uint32_t src,
                               std::uint32_t dst, std::int64_t size_bytes,
                               Time start, std::uint64_t qp_key) {
  PARALEON_CHECK(index_.find(flow_id) == nullptr, "flow ", flow_id,
                 " started twice");
  FlowRecord rec;
  rec.flow_id = flow_id;
  rec.src = src;
  rec.dst = dst;
  rec.size_bytes = size_bytes;
  rec.qp_key = qp_key == 0 ? flow_id : qp_key;
  rec.start = start;
  index_[flow_id] = static_cast<std::uint32_t>(records_.size());
  records_.push_back(rec);
}

void FctTracker::on_flow_finish(std::uint64_t flow_id, Time finish) {
  const std::uint32_t* at = index_.find(flow_id);
  if (at == nullptr) return;
  FlowRecord& rec = records_[*at];
  if (rec.finish >= 0) return;  // held after finishing
  rec.finish = finish;
  ++finished_;
  if (hold_finished_) {
    held_.push_back(flow_id);
  } else {
    index_.erase(flow_id);
  }
}

const FlowRecord* FctTracker::find(std::uint64_t flow_id) const {
  const std::uint32_t* at = index_.find(flow_id);
  return at == nullptr ? nullptr : &records_[*at];
}

void FctTracker::release_finished() {
  for (const std::uint64_t flow_id : held_) index_.erase(flow_id);
  held_.clear();
}

std::vector<FlowRecord> FctTracker::sorted_records() const {
  std::vector<FlowRecord> out = records_;
  std::sort(out.begin(), out.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.flow_id < b.flow_id;
            });
  return out;
}

std::vector<FlowRecord> FctTracker::completed() const {
  std::vector<FlowRecord> out;
  out.reserve(finished_);
  for (const auto& rec : sorted_records()) {
    if (rec.finish >= 0) out.push_back(rec);
  }
  return out;
}

std::vector<double> FctTracker::fct_seconds(std::int64_t min_size,
                                            std::int64_t max_size) const {
  std::vector<double> out;
  for (const auto& rec : sorted_records()) {
    if (rec.finish < 0) continue;
    if (rec.size_bytes < min_size || rec.size_bytes >= max_size) continue;
    out.push_back(to_sec(rec.finish - rec.start));
  }
  return out;
}

std::vector<double> FctTracker::slowdowns(std::int64_t min_size,
                                          std::int64_t max_size) const {
  std::vector<double> out;
  for (const auto& rec : sorted_records()) {
    if (rec.finish < 0) continue;
    if (rec.size_bytes < min_size || rec.size_bytes >= max_size) continue;
    const Time ideal =
        std::max<Time>(1, ideal_(rec.size_bytes, rec.src, rec.dst));
    out.push_back(static_cast<double>(rec.finish - rec.start) /
                  static_cast<double>(ideal));
  }
  return out;
}

FctTracker::SlowdownStats FctTracker::slowdown_stats(
    std::int64_t min_size, std::int64_t max_size) const {
  std::vector<double> s = slowdowns(min_size, max_size);
  SlowdownStats out;
  out.count = s.size();
  if (s.empty()) return out;
  out.mean = mean(s);
  out.p50 = quantile(s, 0.50);
  out.p95 = quantile(s, 0.95);
  out.p99 = quantile(s, 0.99);
  out.p999 = quantile(std::move(s), 0.999);
  return out;
}

const std::vector<FctTracker::SizeBucket>& FctTracker::size_buckets() {
  static const std::vector<SizeBucket> kBuckets = {
      {"lt_64k", 0, 64 * 1024},
      {"64k_1m", 64 * 1024, 1024 * 1024},
      {"1m_16m", 1024 * 1024, 16 * 1024 * 1024},
      {"ge_16m", 16 * 1024 * 1024, std::numeric_limits<std::int64_t>::max()},
  };
  return kBuckets;
}

std::vector<std::pair<FctTracker::SizeBucket, FctTracker::SlowdownStats>>
FctTracker::bucket_slowdowns() const {
  std::vector<std::pair<SizeBucket, SlowdownStats>> out;
  for (const SizeBucket& b : size_buckets()) {
    out.emplace_back(b, slowdown_stats(b.min_size, b.max_size));
  }
  return out;
}

std::vector<FlowRecord> FctTracker::unfinished() const {
  std::vector<FlowRecord> out;
  for (const auto& rec : sorted_records()) {
    if (rec.finish < 0) out.push_back(rec);
  }
  return out;
}

}  // namespace paraleon::stats
