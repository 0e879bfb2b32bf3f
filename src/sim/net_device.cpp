#include "sim/net_device.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/unique_function.hpp"
#include "sim/host_node.hpp"
#include "sim/node.hpp"
#include "sim/switch_node.hpp"

namespace paraleon::sim {

NetDevice::NetDevice(Simulator* sim, Node* owner, Node* peer, int peer_port,
                     Rate rate, Time propagation_delay)
    : sim_(sim),
      owner_(owner),
      peer_(peer),
      peer_port_(peer_port),
      rate_(rate),
      prop_delay_(propagation_delay) {}

void NetDevice::enqueue(PacketHandle h, int in_port) {
  const Packet& pkt = sim_->packets()[h];
  sim_->obs().perf().on_packet_enqueue(pkt.size_bytes);
  if (pkt.is_control()) {
    ctrl_bytes_ += pkt.size_bytes;
    ctrl_q_.push_back({h, in_port});
  } else {
    data_bytes_ += pkt.size_bytes;
    data_q_.push_back({h, in_port});
  }
  try_transmit();
}

bool NetDevice::data_paused() const { return sim_->now() < pause_until_; }

void NetDevice::pause_data(Time duration) {
  const Time now = sim_->now();
  const Time until = now + duration;
  ++pause_frames_rx_;
  if (!data_paused()) {
    pause_start_ = now;
    ++pause_events_;
    obs::TraceRecorder& tr = sim_->obs().trace();
    if (tr.enabled(obs::TraceCategory::kPfc)) {
      // The span lives on the downstream node's (peer, port) track: that is
      // the queue whose egress the pause throttles.
      tr.begin_span(obs::TraceCategory::kPfc, "pfc.pause", now, peer_->id(),
                    peer_port_,
                    {{"duration_ns", static_cast<std::int64_t>(duration)}});
    }
  }
  pause_until_ = std::max(pause_until_, until);
  // One outstanding kick covers any extension: it re-arms itself if the
  // pause grew past its deadline. The pre-fix path scheduled a fresh kick
  // per XOFF frame, so a PFC storm of N frames left N-1 dead events in
  // the queue at exactly the moment the queue was deepest.
  if (kick_armed_) return;
  kick_armed_ = true;
  schedule_kick(++kick_generation_);
}

void NetDevice::schedule_kick(std::uint64_t gen) {
  kick_deadline_ = pause_until_;
  ++kicks_scheduled_;
  auto cb = [this, gen] { pause_kick(gen); };
  static_assert(common::UniqueFunction::fits_inline<decltype(cb)>(),
                "pause-kick closure must stay inline");
  sim_->schedule_at(pause_until_, std::move(cb), "net.pause_kick");
}

void NetDevice::pause_kick(std::uint64_t gen) {
  if (gen != kick_generation_) return;  // voided by an early resume
  if (sim_->now() < pause_until_) {
    // The pause was extended while this kick was in flight: relay to the
    // new deadline instead of leaving a dead event behind.
    schedule_kick(gen);
    return;
  }
  kick_armed_ = false;
  const Time span = sim_->now() - pause_start_;
  paused_accum_ += span;
  charge_blocked_flows(span);
  obs::TraceRecorder& tr = sim_->obs().trace();
  if (tr.enabled(obs::TraceCategory::kPfc)) {
    tr.end_span(obs::TraceCategory::kPfc, "pfc.pause", sim_->now(),
                peer_->id(), peer_port_);
  }
  try_transmit();
}

void NetDevice::resume_data() {
  if (!data_paused()) return;
  const Time span = sim_->now() - pause_start_;
  paused_accum_ += span;
  charge_blocked_flows(span);
  pause_until_ = sim_->now();
  ++kick_generation_;  // void the pending auto-resume kick
  kick_armed_ = false;
  obs::TraceRecorder& tr = sim_->obs().trace();
  if (tr.enabled(obs::TraceCategory::kPfc)) {
    tr.end_span(obs::TraceCategory::kPfc, "pfc.pause", sim_->now(),
                peer_->id(), peer_port_);
  }
  try_transmit();
}

void NetDevice::charge_blocked_flows(Time span_ns) {
  obs::AttributionEngine& attr = sim_->obs().attribution();
  if (!attr.enabled() || span_ns <= 0) return;
  // Runs only at pause end and only with attribution on — the per-packet
  // path never sees it. Each distinct flow is charged once per span even
  // if several of its packets are queued (see attribution.hpp for the
  // full-span approximation). (peer, peer_port) is the latch key the
  // downstream pauser opened its span under. The data ring holds data
  // packets only, so no control filter is needed here.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < data_q_.size(); ++i) {
    const std::uint64_t flow = sim_->packets()[data_q_[i].pkt].flow_id;
    if (!seen.insert(flow).second) continue;
    attr.on_flow_blocked(peer_->id(), peer_port_, flow, span_ns);
  }
}

Time NetDevice::paused_time() const {
  Time t = paused_accum_;
  if (data_paused()) t += sim_->now() - pause_start_;
  return t;
}

void NetDevice::try_transmit() {
  if (busy_) return;
  Queued item;
  std::uint32_t bytes = 0;
  if (!ctrl_q_.empty()) {
    item = ctrl_q_.front();
    ctrl_q_.pop_front();
    bytes = sim_->packets()[item.pkt].size_bytes;
    ctrl_bytes_ -= bytes;
  } else if (!data_q_.empty() && !data_paused()) {
    item = data_q_.front();
    data_q_.pop_front();
    bytes = sim_->packets()[item.pkt].size_bytes;
    data_bytes_ -= bytes;
  } else {
    return;
  }
  busy_ = true;
  const Time ser = serialization_time(bytes, rate_);
  auto cb = [this, item] { finish_transmit(item); };
  static_assert(common::UniqueFunction::fits_inline<decltype(cb)>(),
                "hot-path serialize closure must stay inline");
  sim_->schedule_in(ser, std::move(cb), "net.serialize");
}

void NetDevice::finish_transmit(Queued item) {
  busy_ = false;
  // Pool slots never move, so this reference survives the packets the
  // owner's dequeue hook may create.
  Packet& pkt = sim_->packets()[item.pkt];
  if (pkt.is_control()) {
    tx_ctrl_bytes_ += pkt.size_bytes;
  } else {
    tx_data_bytes_ += pkt.size_bytes;
    ++tx_data_packets_;
    obs::TraceRecorder& tr = sim_->obs().trace();
    if (tr.enabled(obs::TraceCategory::kPacket)) {
      tr.instant(obs::TraceCategory::kPacket, "pkt.tx", sim_->now(),
                 peer_->id(), peer_port_,
                 {{"flow", static_cast<std::int64_t>(pkt.flow_id)},
                  {"bytes", static_cast<std::int64_t>(pkt.size_bytes)},
                  {"ecn", pkt.ecn_ce ? 1 : 0}});
    }
  }
  notify_owner(pkt, item.in_port);
  // ttl == 0 on arrival means "not tracked" (default Packet) and is
  // forwarded untouched; a tracked packet whose budget hits zero here
  // has looped. The pre-fix path forwarded it forever at TTL 0 with no
  // signal (the TTL black hole); drop it loudly instead.
  if (pkt.ttl > 0 && --pkt.ttl == 0) {
    drop_expired(pkt);
    sim_->packets().free(item.pkt);
    try_transmit();
    return;
  }
  auto cb = [this, h = item.pkt] { deliver(h); };
  static_assert(common::UniqueFunction::fits_inline<decltype(cb)>(),
                "hot-path propagate closure must stay inline");
  sim_->schedule_in(prop_delay_, std::move(cb), "net.propagate");
  try_transmit();
}

void NetDevice::notify_owner(const Packet& pkt, int in_port) {
  if (owner_ == nullptr) return;
  switch (owner_->kind()) {
    case NodeKind::kHost:
      static_cast<HostNode*>(owner_)->on_nic_dequeue(pkt);
      return;
    case NodeKind::kSwitch:
      static_cast<SwitchNode*>(owner_)->account_dequeue(pkt, in_port);
      return;
    case NodeKind::kTap: {
      const auto* tap = static_cast<const TapNode*>(owner_);
      if (tap->on_dequeue) tap->on_dequeue(pkt, in_port);
      return;
    }
  }
}

void NetDevice::deliver(PacketHandle h) {
  switch (peer_->kind()) {
    case NodeKind::kHost:
      static_cast<HostNode*>(peer_)->receive(h, peer_port_);
      return;
    case NodeKind::kSwitch:
      static_cast<SwitchNode*>(peer_)->receive(h, peer_port_);
      return;
    case NodeKind::kTap: {
      const Packet pkt = sim_->packets().take(h);
      const auto* tap = static_cast<const TapNode*>(peer_);
      if (tap->on_receive) tap->on_receive(pkt, peer_port_);
      return;
    }
  }
}

void NetDevice::drop_expired(const Packet& pkt) {
  ++ttl_drops_;
  last_ttl_flow_ = pkt.flow_id;
  if (!ttl_expired_.valid()) {
    // Bound lazily so loop-free runs register nothing: a new counter in
    // the registry snapshot would shift every clean run's digest.
    ttl_expired_ = sim_->obs().registry().counter("sim.ttl_expired");
  }
  ttl_expired_.inc();
  obs::TraceRecorder& tr = sim_->obs().trace();
  if (tr.enabled(obs::TraceCategory::kPacket)) {
    tr.instant(obs::TraceCategory::kPacket, "pkt.ttl_expired", sim_->now(),
               peer_->id(), peer_port_,
               {{"flow", static_cast<std::int64_t>(pkt.flow_id)},
                {"src", static_cast<std::int64_t>(pkt.src)},
                {"dst", static_cast<std::int64_t>(pkt.dst)}});
  }
}

}  // namespace paraleon::sim
