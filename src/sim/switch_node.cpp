#include "sim/switch_node.hpp"

#include <algorithm>
#include <string>

#include "check/check.hpp"

namespace paraleon::sim {
namespace {

// 64-bit mix (splitmix64 finaliser) for ECMP / marking hash streams.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

SwitchNode::SwitchNode(Simulator* sim, NodeId id, SwitchConfig cfg,
                       std::uint64_t ecmp_salt)
    : Node(id, NodeKind::kSwitch),
      sim_(sim),
      cfg_(cfg),
      ecmp_salt_(ecmp_salt),
      mark_stream_(mix(ecmp_salt ^ 0xA5A5A5A5A5A5A5A5ull)) {
  obs::Registry& reg = sim_->obs().registry();
  const std::string prefix = "switch." + std::to_string(id);
  drops_ = reg.counter(prefix + ".mmu.drops");
  ecn_marks_ = reg.counter(prefix + ".ecn.marks");
  pfc_sent_count_ = reg.counter(prefix + ".pfc.pauses_sent");
  reg.gauge(prefix + ".mmu.buffer_used",
            [this] { return static_cast<double>(used_); });
}

int SwitchNode::add_port(Node* peer, int peer_port, Rate rate,
                         Time prop_delay) {
  const int idx = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<NetDevice>(sim_, this, peer, peer_port,
                                               rate, prop_delay));
  ingress_bytes_.push_back(0);
  rx_data_bytes_.push_back(0);
  pause_sent_.push_back(false);
  last_pause_sent_.push_back(-kTimeNever / 2);

  // Unconditional (cheap, wiring-time-only) so attribution can be enabled
  // after the topology is built.
  sim_->obs().attribution().register_link(id(), idx, peer->id(), peer_port,
                                          peer->is_switch());

  obs::Registry& reg = sim_->obs().registry();
  const std::string prefix =
      "switch." + std::to_string(id()) + ".port." + std::to_string(idx);
  NetDevice* dev = ports_.back().get();
  reg.gauge(prefix + ".tx_data_bytes",
            [dev] { return static_cast<double>(dev->tx_data_bytes()); });
  reg.gauge(prefix + ".rx_data_bytes", [this, idx] {
    return static_cast<double>(rx_data_bytes_[idx]);
  });
  reg.gauge(prefix + ".queue_bytes",
            [dev] { return static_cast<double>(dev->data_queue_bytes()); });
  reg.gauge(prefix + ".paused_ns",
            [dev] { return static_cast<double>(dev->paused_time()); });
  reg.gauge(prefix + ".pfc.pauses_received", [dev] {
    return static_cast<double>(dev->pause_frames_received());
  });
  return idx;
}

void SwitchNode::set_route(NodeId dst, std::vector<int> ports) {
  PARALEON_CHECK(!ports.empty(), "switch ", id(), ": empty ECMP set for dst ",
                 dst);
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1);
  routes_[dst] = std::move(ports);
}

int SwitchNode::route_port(NodeId dst, std::uint64_t flow_id) const {
  PARALEON_CHECK(dst < routes_.size() && !routes_[dst].empty(), "switch ",
                 id(), ": no route to destination ", dst, " (flow ", flow_id,
                 ")");
  const auto& candidates = routes_[dst];
  const std::size_t n = candidates.size();
  if (n == 1) return candidates[0];
  const std::uint64_t h = mix(flow_id ^ ecmp_salt_);
  // h % n; fabrics build power-of-two ECMP sets, where a mask gives the
  // same port without a 64-bit division.
  return candidates[(n & (n - 1)) == 0 ? h & (n - 1) : h % n];
}

void SwitchNode::receive(PacketHandle h, int in_port) {
  PacketPool& pool = sim_->packets();
  const Packet& pkt = pool[h];
  switch (pkt.type) {
    case PacketType::kPfcPause: {
      // Link-local: the neighbour on `in_port` wants our egress towards it
      // (the same port index) paused.
      const Time duration = pkt.aux;
      pool.free(h);
      ports_[in_port]->pause_data(duration);
      return;
    }
    case PacketType::kPfcResume:
      pool.free(h);
      ports_[in_port]->resume_data();
      return;
    case PacketType::kAck:
    case PacketType::kCnp: {
      // Control packets bypass the MMU: route and forward immediately.
      const int out = route_port(pkt.dst, pkt.flow_id);
      ports_[out]->enqueue(h, in_port);
      return;
    }
    case PacketType::kData:
      admit_data(h, in_port);
      return;
  }
}

void SwitchNode::admit_data(PacketHandle h, int in_port) {
  Packet& pkt = sim_->packets()[h];
  rx_data_bytes_[in_port] += pkt.size_bytes;
  if (used_ + pkt.size_bytes > cfg_.buffer_bytes) {
    // lossless fabrics should never get here; counted, not hidden
    drops_.inc();
    obs::TraceRecorder& tr = sim_->obs().trace();
    if (tr.enabled(obs::TraceCategory::kPacket)) {
      tr.instant(obs::TraceCategory::kPacket, "mmu.drop", sim_->now(), id(),
                 in_port,
                 {{"flow", static_cast<std::int64_t>(pkt.flow_id)},
                  {"bytes", static_cast<std::int64_t>(pkt.size_bytes)},
                  {"buffer_used", used_}});
    }
    sim_->packets().free(h);
    return;
  }
  used_ += pkt.size_bytes;
  ingress_bytes_[in_port] += pkt.size_bytes;

  // Data-plane measurement (Elastic Sketch / NetFlow) with TOS dedup.
  if (sketch_ != nullptr && !pkt.sketch_marked) {
    if (sketch_->on_data_packet(pkt)) pkt.sketch_marked = true;
  }

  const int out = route_port(pkt.dst, pkt.flow_id);
  maybe_mark_ecn(pkt, *ports_[out]);
  ports_[out]->enqueue(h, in_port);

  if (cfg_.pfc_enabled) check_pfc_xoff(in_port);
}

void SwitchNode::account_dequeue(const Packet& pkt, int in_port) {
  if (pkt.is_control() || in_port < 0) return;
  used_ -= pkt.size_bytes;
  ingress_bytes_[in_port] -= pkt.size_bytes;
  PARALEON_CHECK(used_ >= 0 && ingress_bytes_[in_port] >= 0, "switch ", id(),
                 ": MMU accounting went negative (used=", used_, ", ingress[",
                 in_port, "]=", ingress_bytes_[in_port], ")");
  if (cfg_.pfc_enabled) check_pfc_xon(in_port);
}

void SwitchNode::maybe_mark_ecn(Packet& pkt, const NetDevice& egress) {
  const std::int64_t q = egress.data_queue_bytes();
  double p = 0.0;
  if (q >= ecn_.kmax_bytes) {
    p = 1.0;
  } else if (q > ecn_.kmin_bytes) {
    p = ecn_.pmax * static_cast<double>(q - ecn_.kmin_bytes) /
        static_cast<double>(std::max<std::int64_t>(
            1, ecn_.kmax_bytes - ecn_.kmin_bytes));
  }
  if (p <= 0.0) return;
  mark_stream_ = mix(mark_stream_ + 0x9E3779B97F4A7C15ull);
  const double u =
      static_cast<double>(mark_stream_ >> 11) * 0x1.0p-53;  // [0,1)
  if (u < p) {
    pkt.ecn_ce = true;
    ecn_marks_.inc();
    obs::TraceRecorder& tr = sim_->obs().trace();
    if (tr.enabled(obs::TraceCategory::kPacket)) {
      tr.instant(obs::TraceCategory::kPacket, "ecn.mark", sim_->now(), id(), 0,
                 {{"flow", static_cast<std::int64_t>(pkt.flow_id)},
                  {"queue_bytes", q}});
    }
  }
}

std::int64_t SwitchNode::xoff_threshold() const {
  return static_cast<std::int64_t>(
      cfg_.pfc_alpha * static_cast<double>(std::max<std::int64_t>(
                           0, cfg_.buffer_bytes - used_)));
}

void SwitchNode::check_pfc_xoff(int in_port) {
  if (ingress_bytes_[in_port] <= xoff_threshold()) return;
  // Refresh even when a pause is already outstanding: if our own egress is
  // blocked (nothing dequeues), the upstream would otherwise resume when
  // the XOFF quanta lapse and flood an already-full buffer. Rate-limited
  // to half the quanta.
  if (pause_sent_[in_port] &&
      sim_->now() - last_pause_sent_[in_port] < cfg_.pfc_pause_duration / 2) {
    return;
  }
  const bool fresh = !pause_sent_[in_port];
  pause_sent_[in_port] = true;
  last_pause_sent_[in_port] = sim_->now();
  pfc_sent_count_.inc();
  if (fresh) {
    sim_->obs().attribution().on_xoff(sim_->now(), id(), in_port,
                                      ingress_bytes_[in_port],
                                      xoff_threshold());
  }
  obs::TraceRecorder& tr = sim_->obs().trace();
  if (tr.enabled(obs::TraceCategory::kPfc)) {
    tr.instant(obs::TraceCategory::kPfc, "pfc.xoff_tx", sim_->now(), id(),
               in_port, {{"ingress_bytes", ingress_bytes_[in_port]},
                         {"threshold", xoff_threshold()}});
  }
  ports_[in_port]->enqueue(
      make_pfc(PacketType::kPfcPause, cfg_.pfc_pause_duration), -1);
  ensure_pause_scan();
}

void SwitchNode::ensure_pause_scan() {
  // While any pause is latched, a periodic scan keeps upstreams paused
  // (and releases them) even when our own egress is blocked and no
  // enqueue/dequeue events fire on the paused ingress. Real switches do
  // the same: watermark-driven pause frames are re-emitted continuously.
  if (pause_scan_active_) return;
  pause_scan_active_ = true;
  sim_->schedule_in(cfg_.pfc_pause_duration / 2, [this] { pause_scan(); },
                    "switch.pause_scan");
}

void SwitchNode::pause_scan() {
  bool any = false;
  const std::int64_t resume_below =
      std::max<std::int64_t>(0, xoff_threshold() - 2 * cfg_.mtu_bytes);
  for (int i = 0; i < static_cast<int>(ports_.size()); ++i) {
    if (!pause_sent_[i]) continue;
    if (ingress_bytes_[i] < resume_below) {
      pause_sent_[i] = false;
      sim_->obs().attribution().on_xon(sim_->now(), id(), i);
      ports_[i]->enqueue(make_pfc(PacketType::kPfcResume, 0), -1);
      continue;
    }
    any = true;
    if (sim_->now() - last_pause_sent_[i] >= cfg_.pfc_pause_duration / 2) {
      last_pause_sent_[i] = sim_->now();
      ports_[i]->enqueue(
          make_pfc(PacketType::kPfcPause, cfg_.pfc_pause_duration), -1);
    }
  }
  if (any) {
    sim_->schedule_in(cfg_.pfc_pause_duration / 2, [this] { pause_scan(); },
                      "switch.pause_scan");
  } else {
    pause_scan_active_ = false;
  }
}

void SwitchNode::check_pfc_xon(int in_port) {
  if (!pause_sent_[in_port]) return;
  const std::int64_t resume_below =
      std::max<std::int64_t>(0, xoff_threshold() - 2 * cfg_.mtu_bytes);
  if (ingress_bytes_[in_port] >= resume_below) {
    // Still above the resume watermark: refresh the pause (rate-limited to
    // half the quanta) so the upstream does not restart mid-congestion.
    if (sim_->now() - last_pause_sent_[in_port] >=
        cfg_.pfc_pause_duration / 2) {
      last_pause_sent_[in_port] = sim_->now();
      ports_[in_port]->enqueue(
          make_pfc(PacketType::kPfcPause, cfg_.pfc_pause_duration), -1);
    }
    return;
  }
  pause_sent_[in_port] = false;
  sim_->obs().attribution().on_xon(sim_->now(), id(), in_port);
  ports_[in_port]->enqueue(make_pfc(PacketType::kPfcResume, 0), -1);
}

Time SwitchNode::total_paused_time() const {
  Time t = 0;
  for (const auto& p : ports_) t += p->paused_time();
  return t;
}

}  // namespace paraleon::sim
