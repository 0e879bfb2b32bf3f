#include "obs/counters.hpp"

#include <algorithm>

namespace paraleon::obs {

Counter Registry::counter(const std::string& name) {
  common::MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return Counter(&slots_[it->second]);
  const std::size_t idx = slots_.size();
  slots_.push_back(0);
  counters_.emplace(name, idx);
  return Counter(&slots_[idx]);
}

void Registry::gauge(std::string name, ReadFn read) {
  common::MutexLock lock(mu_);
  gauges_sorted_ = false;
  gauges_.emplace_back(std::move(name), std::move(read));
}

void Registry::sort_gauges() const {
  if (gauges_sorted_) return;
  // Stable, so a name's registrations stay in order and the last is the
  // one kept.
  std::stable_sort(gauges_.begin(), gauges_.end(),
                   [](const NamedGauge& a, const NamedGauge& b) {
                     return a.first < b.first;
                   });
  auto kept = gauges_.begin();
  for (auto it = gauges_.begin(); it != gauges_.end(); ++it) {
    const auto next = it + 1;
    if (next != gauges_.end() && next->first == it->first) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  gauges_.erase(kept, gauges_.end());
  gauges_sorted_ = true;
}

const Registry::NamedGauge* Registry::find_gauge(
    const std::string& name) const {
  sort_gauges();
  const auto it = std::lower_bound(
      gauges_.begin(), gauges_.end(), name,
      [](const NamedGauge& g, const std::string& n) { return g.first < n; });
  return it != gauges_.end() && it->first == name ? &*it : nullptr;
}

std::vector<Registry::Sample> Registry::snapshot() const {
  common::MutexLock lock(mu_);
  sort_gauges();
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size());
  // Both tables are name-ordered; a two-way merge keeps the result sorted.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool take_counter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first < g->first);
    if (take_counter) {
      out.push_back(
          {c->first, true, static_cast<double>(slots_[c->second])});
      ++c;
    } else {
      out.push_back({g->first, false, g->second ? g->second() : 0.0});
      ++g;
    }
  }
  return out;
}

double Registry::value_of(const std::string& name) const {
  common::MutexLock lock(mu_);
  const auto c = counters_.find(name);
  if (c != counters_.end()) return static_cast<double>(slots_[c->second]);
  const NamedGauge* g = find_gauge(name);
  return g != nullptr && g->second ? g->second() : 0.0;
}

bool Registry::has(const std::string& name) const {
  common::MutexLock lock(mu_);
  return counters_.count(name) != 0 || find_gauge(name) != nullptr;
}

std::size_t Registry::size() const {
  common::MutexLock lock(mu_);
  sort_gauges();
  return counters_.size() + gauges_.size();
}

common::Json Registry::to_json() const {
  using common::Json;
  Json counters = Json::make_object();
  Json gauges = Json::make_object();
  // The snapshot is name-sorted and names are unique: append, no lookup.
  for (const auto& s : snapshot()) {
    (s.is_counter ? counters : gauges)
        .members()
        .emplace_back(s.name, Json::make_number(s.value));
  }
  return Json::make_object(
      {{"counters", std::move(counters)}, {"gauges", std::move(gauges)}});
}

}  // namespace paraleon::obs
