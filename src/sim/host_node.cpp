#include "sim/host_node.hpp"

#include <algorithm>
#include <string>

#include "check/check.hpp"

namespace paraleon::sim {

namespace {
/// A QP keeps at most this many packets inside the NIC; models the RNIC's
/// internal QP arbitration and prevents unbounded NIC queue growth while
/// still letting the NIC stay fully utilised.
constexpr int kMaxPerQpNicBacklog = 2;
}  // namespace

HostNode::HostNode(Simulator* sim, NodeId id, dcqcn::DcqcnParams rnic_params)
    : Node(id, NodeKind::kHost), sim_(sim), params_(rnic_params) {
  obs::Registry& reg = sim_->obs().registry();
  const std::string prefix = "host." + std::to_string(id);
  cnps_sent_ = reg.counter(prefix + ".cnp.sent");
  cnps_received_ = reg.counter(prefix + ".cnp.received");
  cnps_suppressed_ = reg.counter(prefix + ".cnp.suppressed");
  rx_data_bytes_ = reg.counter(prefix + ".rx_data_bytes");
  reg.gauge(prefix + ".rp.cuts",
            [this] { return static_cast<double>(rp_counters_.cuts); });
  reg.gauge(prefix + ".rp.fast_recovery", [this] {
    return static_cast<double>(rp_counters_.fast_recovery);
  });
  reg.gauge(prefix + ".rp.additive_increase", [this] {
    return static_cast<double>(rp_counters_.additive_increase);
  });
  reg.gauge(prefix + ".rp.hyper_increase", [this] {
    return static_cast<double>(rp_counters_.hyper_increase);
  });
  reg.gauge(prefix + ".rp.alpha_updates", [this] {
    return static_cast<double>(rp_counters_.alpha_updates);
  });
  reg.gauge(prefix + ".active_tx_flows",
            [this] { return static_cast<double>(tx_flows_.size()); });
}

void HostNode::attach_uplink(Node* tor, int tor_port, Rate rate,
                             Time prop_delay) {
  PARALEON_CHECK(!uplink_, "host ", id(), ": uplink already attached");
  uplink_ = std::make_unique<NetDevice>(sim_, this, tor, tor_port, rate,
                                        prop_delay);
  sim_->obs().attribution().register_link(id(), 0, tor->id(), tor_port,
                                          tor->is_switch());
  obs::Registry& reg = sim_->obs().registry();
  const std::string prefix = "host." + std::to_string(id()) + ".uplink";
  NetDevice* dev = uplink_.get();
  reg.gauge(prefix + ".tx_data_bytes",
            [dev] { return static_cast<double>(dev->tx_data_bytes()); });
  reg.gauge(prefix + ".queue_bytes",
            [dev] { return static_cast<double>(dev->data_queue_bytes()); });
  reg.gauge(prefix + ".paused_ns",
            [dev] { return static_cast<double>(dev->paused_time()); });
  reg.gauge(prefix + ".pfc.pauses_received", [dev] {
    return static_cast<double>(dev->pause_frames_received());
  });
}

void HostNode::start_flow(std::uint64_t flow_id, NodeId dst,
                          std::int64_t size_bytes, std::uint64_t qp_key) {
  PARALEON_CHECK(uplink_ != nullptr, "host ", id(), ": has no uplink");
  PARALEON_CHECK(size_bytes > 0, "host ", id(), ": flow ", flow_id,
                 " has non-positive size ", size_bytes);
  auto [it, inserted] = tx_flows_.try_emplace(
      flow_id, &params_, uplink_->rate(), sim_->now(), &rp_counters_);
  PARALEON_CHECK(inserted, "host ", id(), ": flow_id ", flow_id, " reused");
  FlowTx& f = it->second;
  tx_index_[flow_id] = &f;
  f.dst = dst;
  f.qp_key = qp_key == 0 ? flow_id : qp_key;
  f.size = size_bytes;
  f.next_time = sim_->now();
  schedule_rp_timer(flow_id, f);
  try_send(flow_id);
}

void HostNode::try_send(std::uint64_t flow_id) {
  FlowTx* fp = find_tx(flow_id);
  if (fp == nullptr) return;
  FlowTx& f = *fp;

  while (f.sent < f.size) {
    if (f.in_nic >= kMaxPerQpNicBacklog) {
      f.blocked = true;  // on_nic_dequeue will resume us
      return;
    }
    const Time now = sim_->now();
    if (now < f.next_time) {
      if (!f.wait_scheduled) {
        f.wait_scheduled = true;
        sim_->schedule_at(
            f.next_time,
            [this, flow_id] {
              FlowTx* waiting = find_tx(flow_id);
              if (waiting == nullptr) return;
              waiting->wait_scheduled = false;
              try_send(flow_id);
            },
            "host.pacing");
      }
      return;
    }

    f.rp.advance_to(now);
    const auto bytes = static_cast<std::uint32_t>(
        std::min<std::int64_t>(mtu_bytes_, f.size - f.sent));
    Packet pkt;
    pkt.flow_id = flow_id;
    pkt.qp_key = f.qp_key;
    pkt.src = id();
    pkt.dst = f.dst;
    pkt.type = PacketType::kData;
    pkt.priority = kPriorityData;
    pkt.size_bytes = bytes;
    pkt.offset = f.sent;
    pkt.sent_time = now;
    pkt.aux = f.size;  // lets the receiver detect the last byte
    uplink_->enqueue(pkt, -1);
    ++f.in_nic;
    f.sent += bytes;
    f.rp.on_bytes_sent(bytes, now);
    // Pace the next injection at the QP's current DCQCN rate.
    const Time gap = serialization_time(bytes, f.rp.current_rate());
    f.next_time = std::max(now, f.next_time) + gap;
  }
  maybe_finish_tx(flow_id);
}

void HostNode::schedule_rp_timer(std::uint64_t flow_id, FlowTx& f) {
  const std::uint64_t gen = ++f.rp_gen;
  const Time t = std::max(f.rp.next_deadline(), sim_->now());
  sim_->schedule_at(
      t,
      [this, flow_id, gen] {
        FlowTx* timed = find_tx(flow_id);
        if (timed == nullptr || timed->rp_gen != gen) return;
        timed->rp.advance_to(sim_->now());
        schedule_rp_timer(flow_id, *timed);
        // A rate increase may allow an earlier injection than the gap
        // computed with the old rate; keep it simple and let the existing
        // pacing stand — the new rate applies from the next packet.
      },
      "host.rp_timer");
}

void HostNode::on_nic_dequeue(const Packet& pkt) {
  if (pkt.type != PacketType::kData) return;
  // Channel 0 models the RNIC's per-QP counters (keyed by QP); channel 1
  // serves the ground-truth probe (keyed by individual flow).
  if (tx_counters_on_[0]) mi_tx_bytes_[0][pkt.qp_key] += pkt.size_bytes;
  if (tx_counters_on_[1]) mi_tx_bytes_[1][pkt.flow_id] += pkt.size_bytes;
  FlowTx* fp = find_tx(pkt.flow_id);
  if (fp == nullptr) return;
  FlowTx& f = *fp;
  --f.in_nic;
  if (f.sent >= f.size) {
    maybe_finish_tx(pkt.flow_id);
    return;
  }
  if (f.blocked) {
    f.blocked = false;
    try_send(pkt.flow_id);
  }
}

void HostNode::maybe_finish_tx(std::uint64_t flow_id) {
  FlowTx* fp = find_tx(flow_id);
  if (fp == nullptr) return;
  FlowTx& f = *fp;
  if (f.sent >= f.size && f.in_nic == 0) {
    // Harvest the QP's attribution accumulator before the state vanishes.
    obs::AttributionEngine& attr = sim_->obs().attribution();
    if (attr.enabled()) {
      attr.on_flow_rate_limited(flow_id, f.rp.take_rate_limited());
    }
    tx_index_.erase(flow_id);
    tx_flows_.erase(flow_id);
  }
}

void HostNode::flush_attribution() {
  obs::AttributionEngine& attr = sim_->obs().attribution();
  if (!attr.enabled()) return;
  for (auto& [flow_id, f] : tx_flows_) {
    attr.on_flow_rate_limited(flow_id, f.rp.take_rate_limited());
  }
}

void HostNode::receive(PacketHandle h, int in_port) {
  (void)in_port;  // hosts have a single port
  // The packet ends here: copy it out and recycle its slot, which the ACK
  // this arrival triggers then reuses.
  const Packet pkt = sim_->packets().take(h);
  switch (pkt.type) {
    case PacketType::kPfcPause:
      uplink_->pause_data(pkt.aux);
      return;
    case PacketType::kPfcResume:
      uplink_->resume_data();
      return;
    case PacketType::kData:
      handle_data(pkt);
      return;
    case PacketType::kAck:
      handle_ack(pkt);
      return;
    case PacketType::kCnp:
      handle_cnp(pkt);
      return;
  }
}

void HostNode::handle_data(const Packet& pkt) {
  rx_data_bytes_.add(pkt.size_bytes);
  FlowRx* rxp = rx_flows_.find(pkt.flow_id);
  if (rxp == nullptr) {
    // Each flow takes one path through FIFO queues, so its first segment
    // creates the state and its last erases it. Anything else is a segment
    // of a flow that already completed (or whose head was dropped).
    PARALEON_CHECK(pkt.offset == 0, "host ", id(), ": data for flow ",
                   pkt.flow_id, " at offset ", pkt.offset,
                   " without receive state (segment after completion?)");
    rxp = &rx_flows_[pkt.flow_id];
    rxp->total = pkt.aux;
  }
  // Stays valid below: nothing touches rx_flows_ until the erase.
  FlowRx& rx = *rxp;
  rx.received += pkt.size_bytes;

  // NP: emit a paced CNP when the packet carries ECN CE.
  if (pkt.ecn_ce) {
    Time cnp_gap = params_.min_time_between_cnps;
    Time adaptive_interval = 0;
    if (dcqcn_plus_) {
      // DCQCN+: gauge the incast degree as the number of distinct flows
      // with recent CE marks, and scale the CNP interval with it.
      const Time now = sim_->now();
      marked_flows_[pkt.flow_id] = now;
      for (auto it = marked_flows_.begin(); it != marked_flows_.end();) {
        if (now - it->second > dcqcnp_window_) {
          it = marked_flows_.erase(it);
        } else {
          ++it;
        }
      }
      const auto n = std::max<std::size_t>(1, marked_flows_.size());
      adaptive_interval =
          dcqcnp_base_interval_ * static_cast<Time>(n);
      cnp_gap = adaptive_interval;
    }
    if (rx.np.try_emit(sim_->now(), cnp_gap)) {
      cnps_sent_.inc();
      Packet cnp = make_cnp(pkt, sim_->now());
      cnp.aux = adaptive_interval;  // 0 unless DCQCN+ is active
      uplink_->enqueue(cnp, -1);
    } else {
      cnps_suppressed_.inc();
    }
  }

  // Per-packet ACK: echoes the timestamp (RTT sampling at the sender).
  uplink_->enqueue(make_ack(pkt, sim_->now(), rx.received), -1);

  if (rx.received >= rx.total) {
    rx_flows_.erase(pkt.flow_id);
    if (on_complete_) on_complete_(pkt.flow_id, sim_->now());
  }
}

void HostNode::handle_ack(const Packet& pkt) {
  const Time rtt = sim_->now() - pkt.aux;
  mi_rtt_raw_sum_ += static_cast<double>(rtt);
  ++mi_rtt_raw_count_;
  if (base_rtt_) {
    const Time base = base_rtt_(pkt.src);
    if (base > 0 && rtt > 0) {
      mi_rtt_norm_sum_ += std::min(
          1.0, static_cast<double>(base) / static_cast<double>(rtt));
      ++mi_rtt_norm_count_;
    }
  }
}

void HostNode::handle_cnp(const Packet& pkt) {
  cnps_received_.inc();
  if (dcqcn_plus_ && pkt.aux > 0) {
    // DCQCN+ RP reaction: the CNP carries the NP's adaptive interval;
    // stretch the increase timer and shrink the AI step by the same
    // incast factor. (Applied host-wide — a documented approximation of
    // the per-QP behaviour; see DESIGN.md.)
    const double factor =
        static_cast<double>(pkt.aux) /
        static_cast<double>(std::max<Time>(1, dcqcnp_base_interval_));
    params_.rpg_time_reset = std::min<Time>(
        milliseconds(10),
        static_cast<Time>(
            static_cast<double>(dcqcnp_base_params_.rpg_time_reset) *
            factor));
    params_.ai_rate = std::max(mbps(1), dcqcnp_base_params_.ai_rate / factor);
  }
  FlowTx* fp = find_tx(pkt.flow_id);
  if (fp == nullptr) return;  // flow already fully injected
  if (fp->rp.on_cnp(sim_->now())) {
    obs::TraceRecorder& tr = sim_->obs().trace();
    if (tr.enabled(obs::TraceCategory::kRp)) {
      tr.instant(obs::TraceCategory::kRp, "rp.cut", sim_->now(), id(), 0,
                 {{"flow", static_cast<std::int64_t>(pkt.flow_id)},
                  {"rate_mbps",
                   static_cast<std::int64_t>(fp->rp.current_rate() / 1e6)},
                  {"alpha_milli",
                   static_cast<std::int64_t>(fp->rp.alpha() * 1000.0)}});
    }
    // Deadlines moved; re-arm the timer event.
    schedule_rp_timer(pkt.flow_id, *fp);
  }
}

void HostNode::enable_dcqcn_plus(Time base_cnp_interval,
                                 Time congestion_window) {
  dcqcn_plus_ = true;
  dcqcnp_base_interval_ = base_cnp_interval;
  dcqcnp_window_ = congestion_window;
  dcqcnp_base_params_ = params_;
}

void HostNode::set_dcqcn_params(const dcqcn::DcqcnParams& p) {
  params_ = p;
  for (auto& [flow_id, f] : tx_flows_) {
    f.rp.restart_timers(sim_->now());
    schedule_rp_timer(flow_id, f);
  }
}

void HostNode::enable_tx_counters(int channel) {
  PARALEON_CHECK(channel >= 0 && channel < kTxCounterChannels,
                 "host ", id(), ": bad tx counter channel ", channel);
  tx_counters_on_[channel] = true;
}

HostNode::TxBytes HostNode::drain_tx_bytes_per_flow(int channel) {
  PARALEON_CHECK(channel >= 0 && channel < kTxCounterChannels,
                 "host ", id(), ": bad tx counter channel ", channel);
  common::FlatTable<std::int64_t>& counters = mi_tx_bytes_[channel];
  TxBytes out;
  out.reserve(counters.size());
  counters.for_each([&out](std::uint64_t key, std::int64_t bytes) {
    out.emplace_back(key, bytes);
  });
  counters.clear();
  // Slot order follows the table's capacity history; callers sum doubles
  // and build records from this, so hand it over in key order.
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<double, std::uint64_t> HostNode::drain_rtt_norm_samples() {
  const std::pair<double, std::uint64_t> out{mi_rtt_norm_sum_,
                                             mi_rtt_norm_count_};
  mi_rtt_norm_sum_ = 0.0;
  mi_rtt_norm_count_ = 0;
  return out;
}

std::pair<double, std::uint64_t> HostNode::drain_rtt_raw_samples() {
  const std::pair<double, std::uint64_t> out{mi_rtt_raw_sum_,
                                             mi_rtt_raw_count_};
  mi_rtt_raw_sum_ = 0.0;
  mi_rtt_raw_count_ = 0;
  return out;
}

double HostNode::qp_rate(std::uint64_t flow_id) const {
  const auto it = tx_flows_.find(flow_id);
  return it == tx_flows_.end() ? 0.0 : it->second.rp.current_rate();
}

}  // namespace paraleon::sim
