// Causal PFC / congestion attribution: the layer that turns "throughput
// collapsed" into "switch 100001's ingress 2 filled because its egress to
// host 12 was paused by switch 200000, and flows 3/7 were HoL victims".
//
// The engine records three things, all in simulated time so every dump is
// a pure function of the run seed:
//
//   1. Pause spans: one per latched XOFF at a switch ingress, carrying the
//      congested ingress port, the upstream device whose egress the pause
//      stalls, and the MMU occupancy/threshold at latch time. When the
//      pausing switch is itself being paused by a downstream device at
//      latch time, the new span links to that downstream span as its
//      `cause` — chaining spans across switches reconstructs how a pause
//      storm propagated hop by hop from its root.
//   2. Per-flow PFC-blocked time: when a device's data class resumes, every
//      flow with a packet waiting in the paused queue is charged the pause
//      duration (an upper-bound approximation: a packet arriving mid-pause
//      is charged the full span).
//   3. Per-flow DCQCN rate-limited time: the extra pacing delay the RP
//      machine imposed versus line rate, drained from dcqcn::RpState when a
//      flow finishes (or is flushed mid-run for a post-mortem bundle).
//
// Together with the ideal FCT these decompose a flow's completion time into
// serialization / RP-rate-limited / PFC-blocked / residual-queueing parts
// (assembled in runner::attribution_json).
//
// Everything is off by default: a disabled engine costs one branch at each
// emit site. Link registration is unconditional (a handful of map inserts
// at topology build, never per-packet).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"

namespace paraleon::obs {

class AttributionEngine {
 public:
  /// One directed link endpoint (node, port) -> (peer, peer_port), declared
  /// by the owning node at wiring time.
  struct Link {
    std::uint32_t peer = 0;
    int peer_port = -1;
    bool peer_is_switch = false;
  };

  /// One latched XOFF at a switch ingress: `pauser`'s ingress queue
  /// exceeded the dynamic threshold, stalling `paused`'s egress.
  struct PauseSpan {
    int id = -1;
    std::uint32_t pauser = 0;  // switch that latched the XOFF
    int ingress_port = -1;     // its congested ingress port
    std::uint32_t paused = 0;  // upstream device whose egress stalls
    int paused_port = -1;      // port index at the upstream device
    bool paused_is_switch = false;
    Time start = 0;
    Time end = -1;  // -1 while the pause is still latched
    std::int64_t ingress_bytes = 0;  // occupancy at latch time
    std::int64_t threshold = 0;      // dynamic XOFF threshold at latch time
    /// Span id of the downstream pause that was stalling `pauser`'s own
    /// egress at latch time (-1 = root cause: genuine local congestion).
    int cause = -1;
    /// PFC-blocked time charged to flows queued behind this pause.
    std::map<std::uint64_t, Time> blocked_flows;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Declares the link leaving `node` on `port`. Idempotent; called at
  /// topology wiring regardless of enabled() so late enabling still works.
  void register_link(std::uint32_t node, int port, std::uint32_t peer,
                     int peer_port, bool peer_is_switch);

  /// A switch latched a fresh XOFF towards the upstream on `ingress_port`
  /// (refreshes of an already-latched pause are not new spans).
  void on_xoff(Time t, std::uint32_t sw, int ingress_port,
               std::int64_t ingress_bytes, std::int64_t threshold);
  /// The switch released the pause (XON or watermark scan).
  void on_xon(Time t, std::uint32_t sw, int ingress_port);

  /// A paused device resumed with `flow`'s packets still queued; charge it
  /// `blocked_ns` against the span latched by (`downstream`,
  /// `downstream_port`) — the link key a NetDevice knows its pauses by.
  void on_flow_blocked(std::uint32_t downstream, int downstream_port,
                       std::uint64_t flow, Time blocked_ns);

  /// RP pacing delayed `flow` by `ns` beyond line-rate serialization.
  void on_flow_rate_limited(std::uint64_t flow, Time ns);

  /// Closes every still-open span at `now` (end-of-run / bundle dump).
  void finalize(Time now);

  // ---- queries ----
  const std::vector<PauseSpan>& spans() const { return spans_; }
  std::size_t open_spans() const { return open_.size(); }
  Time blocked_ns(std::uint64_t flow) const;
  Time rate_limited_ns(std::uint64_t flow) const;
  const std::map<std::uint64_t, Time>& blocked_by_flow() const {
    return blocked_ns_;
  }
  const std::map<std::uint64_t, Time>& rate_limited_by_flow() const {
    return rate_limited_ns_;
  }

  /// The causal chain of `span_id`, innermost first: the span itself, its
  /// cause, its cause's cause, ... up to the root congestion point.
  std::vector<int> chain_of(int span_id) const;

  /// Flows ordered by PFC-blocked time (descending, flow id as the
  /// deterministic tiebreak), at most `k` of them.
  struct Victim {
    std::uint64_t flow = 0;
    Time blocked = 0;
    Time rate_limited = 0;
  };
  std::vector<Victim> top_victims(std::size_t k) const;

  /// Deterministic JSON: every pause span, per-switch pause trees
  /// (children = spans this span caused) and the per-flow blocked /
  /// rate-limited maps. runner::attribution_json wraps this with the
  /// FCT decomposition.
  common::Json to_json() const;

  void clear();

 private:
  bool enabled_ = false;
  std::map<std::pair<std::uint32_t, int>, Link> links_;
  std::vector<PauseSpan> spans_;
  /// Open span id per (pauser, ingress_port).
  std::map<std::pair<std::uint32_t, int>, int> open_;
  /// Most recent open span id per paused upstream node (causality lookup).
  std::map<std::uint32_t, std::vector<int>> open_by_paused_;
  std::map<std::uint64_t, Time> blocked_ns_;
  std::map<std::uint64_t, Time> rate_limited_ns_;
};

}  // namespace paraleon::obs
