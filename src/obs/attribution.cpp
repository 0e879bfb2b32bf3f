#include "obs/attribution.hpp"

#include <algorithm>

namespace paraleon::obs {

void AttributionEngine::register_link(std::uint32_t node, int port,
                                      std::uint32_t peer, int peer_port,
                                      bool peer_is_switch) {
  links_[{node, port}] = Link{peer, peer_port, peer_is_switch};
}

void AttributionEngine::on_xoff(Time t, std::uint32_t sw, int ingress_port,
                                std::int64_t ingress_bytes,
                                std::int64_t threshold) {
  if (!enabled_) return;
  const auto key = std::make_pair(sw, ingress_port);
  if (open_.count(key) != 0) return;  // refresh of a latched pause

  PauseSpan span;
  span.id = static_cast<int>(spans_.size());
  span.pauser = sw;
  span.ingress_port = ingress_port;
  span.start = t;
  span.ingress_bytes = ingress_bytes;
  span.threshold = threshold;
  const auto link = links_.find(key);
  if (link != links_.end()) {
    span.paused = link->second.peer;
    span.paused_port = link->second.peer_port;
    span.paused_is_switch = link->second.peer_is_switch;
  }
  // Causality: if this switch's own egress is currently stalled by a
  // downstream pause, that pause is what backed traffic up into this
  // ingress. Most recent open span towards `sw` wins (deterministic: span
  // ids are issued in event order).
  const auto causes = open_by_paused_.find(sw);
  if (causes != open_by_paused_.end() && !causes->second.empty()) {
    span.cause = causes->second.back();
  }

  open_[key] = span.id;
  open_by_paused_[span.paused].push_back(span.id);
  spans_.push_back(std::move(span));
}

void AttributionEngine::on_xon(Time t, std::uint32_t sw, int ingress_port) {
  if (!enabled_) return;
  const auto key = std::make_pair(sw, ingress_port);
  const auto it = open_.find(key);
  if (it == open_.end()) return;
  PauseSpan& span = spans_[static_cast<std::size_t>(it->second)];
  span.end = t;
  auto& stack = open_by_paused_[span.paused];
  stack.erase(std::remove(stack.begin(), stack.end(), it->second),
              stack.end());
  open_.erase(it);
}

void AttributionEngine::on_flow_blocked(std::uint32_t downstream,
                                        int downstream_port,
                                        std::uint64_t flow, Time blocked_ns) {
  if (!enabled_ || blocked_ns <= 0) return;
  blocked_ns_[flow] += blocked_ns;
  // Credit the span that caused this stall, if it is still known: the open
  // (or most recently opened) span latched by (downstream, downstream_port).
  const auto it = open_.find({downstream, downstream_port});
  int span_id = -1;
  if (it != open_.end()) {
    span_id = it->second;
  } else {
    // The span may have just closed (XON delivered before the resume kick
    // fired); fall back to the newest span with that latch key.
    for (auto rit = spans_.rbegin(); rit != spans_.rend(); ++rit) {
      if (rit->pauser == downstream && rit->ingress_port == downstream_port) {
        span_id = rit->id;
        break;
      }
    }
  }
  if (span_id >= 0) {
    spans_[static_cast<std::size_t>(span_id)].blocked_flows[flow] +=
        blocked_ns;
  }
}

void AttributionEngine::on_flow_rate_limited(std::uint64_t flow, Time ns) {
  if (!enabled_ || ns <= 0) return;
  rate_limited_ns_[flow] += ns;
}

void AttributionEngine::finalize(Time now) {
  for (const auto& [key, id] : open_) {
    (void)key;
    PauseSpan& span = spans_[static_cast<std::size_t>(id)];
    if (span.end < 0) span.end = now;
  }
}

Time AttributionEngine::blocked_ns(std::uint64_t flow) const {
  const auto it = blocked_ns_.find(flow);
  return it == blocked_ns_.end() ? 0 : it->second;
}

Time AttributionEngine::rate_limited_ns(std::uint64_t flow) const {
  const auto it = rate_limited_ns_.find(flow);
  return it == rate_limited_ns_.end() ? 0 : it->second;
}

std::vector<int> AttributionEngine::chain_of(int span_id) const {
  std::vector<int> chain;
  while (span_id >= 0 && span_id < static_cast<int>(spans_.size())) {
    chain.push_back(span_id);
    // A malformed cause cycle would loop forever; spans can only point at
    // older spans by construction, so strictly-decreasing ids guarantee
    // termination — enforce it anyway.
    const int next = spans_[static_cast<std::size_t>(span_id)].cause;
    if (next >= span_id) break;
    span_id = next;
  }
  return chain;
}

std::vector<AttributionEngine::Victim> AttributionEngine::top_victims(
    std::size_t k) const {
  std::vector<Victim> all;
  all.reserve(blocked_ns_.size());
  for (const auto& [flow, blocked] : blocked_ns_) {
    all.push_back(Victim{flow, blocked, rate_limited_ns(flow)});
  }
  std::sort(all.begin(), all.end(), [](const Victim& a, const Victim& b) {
    return a.blocked != b.blocked ? a.blocked > b.blocked : a.flow < b.flow;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

namespace {

/// flow id -> nanoseconds; the map is id-ordered, so keys are unique.
common::Json flow_ns_json(const std::map<std::uint64_t, Time>& m) {
  common::Json out = common::Json::make_object();
  for (const auto& [flow, ns] : m) {
    out.members().emplace_back(std::to_string(flow),
                               common::Json::make_int(ns));
  }
  return out;
}

}  // namespace

common::Json AttributionEngine::to_json() const {
  using common::Json;
  Json spans = Json::make_array();
  for (const PauseSpan& s : spans_) {
    spans.push_back(Json::make_object({
        {"id", Json::make_int(s.id)},
        {"pauser", Json::make_int(s.pauser)},
        {"ingress_port", Json::make_int(s.ingress_port)},
        {"paused", Json::make_int(s.paused)},
        {"paused_port", Json::make_int(s.paused_port)},
        {"paused_is_switch", Json::make_bool(s.paused_is_switch)},
        {"start_ns", Json::make_int(s.start)},
        {"end_ns", Json::make_int(s.end)},
        {"ingress_bytes", Json::make_int(s.ingress_bytes)},
        {"threshold", Json::make_int(s.threshold)},
        {"cause", Json::make_int(s.cause)},
        {"blocked_flows", flow_ns_json(s.blocked_flows)},
    }));
  }

  // Pause trees: group root spans (cause == -1) by pausing switch; each
  // node lists the spans it directly caused.
  Json trees = Json::make_array();
  for (const PauseSpan& s : spans_) {
    if (s.cause != -1) continue;
    // Breadth-first over `cause` back-edges; ids increase monotonically so
    // a single forward scan per level suffices.
    std::vector<int> level{s.id};
    Json descendants = Json::make_array();
    while (!level.empty()) {
      std::vector<int> next;
      for (const PauseSpan& c : spans_) {
        if (std::find(level.begin(), level.end(), c.cause) != level.end()) {
          next.push_back(c.id);
          descendants.push_back(Json::make_int(c.id));
        }
      }
      level = std::move(next);
    }
    trees.push_back(Json::make_object({
        {"root", Json::make_int(s.id)},
        {"switch", Json::make_int(s.pauser)},
        {"children", std::move(descendants)},
    }));
  }

  return Json::make_object({
      {"pause_spans", std::move(spans)},
      {"pause_trees", std::move(trees)},
      {"blocked_ns", flow_ns_json(blocked_ns_)},
      {"rate_limited_ns", flow_ns_json(rate_limited_ns_)},
  });
}

void AttributionEngine::clear() {
  spans_.clear();
  open_.clear();
  open_by_paused_.clear();
  blocked_ns_.clear();
  rate_limited_ns_.clear();
}

}  // namespace paraleon::obs
