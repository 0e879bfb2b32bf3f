#include "obs/profile.hpp"

#include <algorithm>

namespace paraleon::obs {

namespace {

int bucket_of(std::int64_t ns) {
  int b = 0;
  while (b + 1 < LoopProfiler::kBuckets && (std::int64_t{1} << (b + 1)) <= ns) {
    ++b;
  }
  return b;
}

}  // namespace

void LoopProfiler::record(const char* tag, std::int64_t wall_ns) {
  if (wall_ns < 0) wall_ns = 0;
  ++events_;
  total_ns_ += wall_ns;
  TagStats& s = tags_[tag == nullptr ? "" : tag];
  ++s.count;
  s.total_ns += wall_ns;
  s.max_ns = std::max(s.max_ns, wall_ns);
  ++s.buckets[bucket_of(wall_ns)];
}

void LoopProfiler::reset() {
  events_ = 0;
  total_ns_ = 0;
  tags_.clear();
}

std::map<std::string, LoopProfiler::TagStats> LoopProfiler::by_tag() const {
  std::map<std::string, TagStats> out;
  for (const auto& [tag, s] : tags_) {
    TagStats& dst = out[tag == nullptr || *tag == '\0' ? "(untagged)" : tag];
    dst.count += s.count;
    dst.total_ns += s.total_ns;
    dst.max_ns = std::max(dst.max_ns, s.max_ns);
    for (int i = 0; i < kBuckets; ++i) dst.buckets[i] += s.buckets[i];
  }
  return out;
}

}  // namespace paraleon::obs
