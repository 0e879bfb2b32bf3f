// Host with an RDMA NIC: per-QP DCQCN pacing (Reaction Point), receiver
// CNP generation (Notification Point), per-packet ACKs for RTT sampling and
// completion detection, and PFC reaction on its uplink.
//
// The RNIC exposes exactly the knobs PARALEON's controller tunes
// (`set_dcqcn_params`) plus the monitor-facing counters the paper's agents
// read each monitor interval: per-QP transmitted bytes (ground-truth flow
// sizes), normalised RTT samples, and uplink throughput / pause time via
// the NetDevice counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "common/time.hpp"
#include "dcqcn/params.hpp"
#include "dcqcn/rp.hpp"
#include "obs/counters.hpp"
#include "sim/net_device.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace paraleon::sim {

class HostNode final : public Node {
 public:
  /// (flow_id, finish_time) when the last byte of a flow arrives here.
  using FlowCompleteFn = std::function<void(std::uint64_t, Time)>;
  /// Base (idle-network) RTT to a peer host, for Swift-style normalisation.
  using BaseRttFn = std::function<Time(NodeId peer)>;

  HostNode(Simulator* sim, NodeId id, dcqcn::DcqcnParams rnic_params);

  /// Wires the uplink towards the ToR. Must be called exactly once.
  void attach_uplink(Node* tor, int tor_port, Rate rate, Time prop_delay);

  /// A packet fully arrived on the uplink; consumes the handle.
  void receive(PacketHandle pkt, int in_port);

  /// Starts sending `size_bytes` to `dst` now. `qp_key` identifies the QP
  /// carrying the flow for data-plane measurement (0 = flow_id, i.e. a
  /// dedicated QP); round-based collectives pass a stable per-pair key.
  void start_flow(std::uint64_t flow_id, NodeId dst, std::int64_t size_bytes,
                  std::uint64_t qp_key = 0);

  // ---- controller-facing ----
  void set_dcqcn_params(const dcqcn::DcqcnParams& p);
  const dcqcn::DcqcnParams& dcqcn_params() const { return params_; }

  /// Enables the DCQCN+ baseline (Gao et al., ICNP'18): the NP scales the
  /// CNP interval with the number of concurrently congested flows observed
  /// in `congestion_window`, carries the interval in each CNP, and the RP
  /// slows its rate-increase step/timer proportionally — taming large
  /// incasts with RNIC-only changes.
  void enable_dcqcn_plus(Time base_cnp_interval, Time congestion_window);
  std::size_t dcqcn_plus_congested_flows() const {
    return marked_flows_.size();
  }

  // ---- monitor-facing ----
  NetDevice& uplink() { return *uplink_; }
  const NetDevice& uplink() const { return *uplink_; }
  bool has_active_tx() const { return !tx_flows_.empty(); }
  std::size_t active_tx_flows() const { return tx_flows_.size(); }
  /// Flows whose receive state this host holds: those still arriving.
  std::size_t rx_flow_count() const { return rx_flows_.size(); }
  /// Per-QP bytes put on the wire since the last call on this channel,
  /// sorted by key; clears the channel's counters. Models reading+resetting
  /// RNIC per-QP counters. Independent channels let the ground-truth probe
  /// and an RNIC-based monitor (§V "Relaxation of programmable switches")
  /// read concurrently without stealing each other's samples. Channel 0
  /// is keyed by QP, channel 1 by individual flow. A channel counts
  /// nothing until its consumer enables it, so a run without one holds no
  /// per-flow state.
  static constexpr int kTxCounterChannels = 2;
  using TxBytes = std::vector<std::pair<std::uint64_t, std::int64_t>>;
  void enable_tx_counters(int channel);
  TxBytes drain_tx_bytes_per_flow(int channel = 0);
  /// (sum of base/rtt samples, count) since last drain.
  std::pair<double, std::uint64_t> drain_rtt_norm_samples();
  /// (sum of raw rtt in ns, count) since last drain.
  std::pair<double, std::uint64_t> drain_rtt_raw_samples();
  std::uint64_t cnps_sent() const {
    return static_cast<std::uint64_t>(cnps_sent_.value());
  }
  std::uint64_t cnps_received() const {
    return static_cast<std::uint64_t>(cnps_received_.value());
  }
  /// ECN-marked arrivals whose CNP the NP pacing window swallowed.
  std::uint64_t cnps_suppressed() const {
    return static_cast<std::uint64_t>(cnps_suppressed_.value());
  }
  /// Host-aggregate DCQCN RP stage counts (shared by all of this host's QPs).
  const dcqcn::RpCounters& rp_counters() const { return rp_counters_; }

  void set_on_flow_complete(FlowCompleteFn fn) { on_complete_ = std::move(fn); }
  void set_base_rtt_fn(BaseRttFn fn) { base_rtt_ = std::move(fn); }

  /// Test/diagnostic access to a sender QP's current DCQCN rate.
  double qp_rate(std::uint64_t flow_id) const;

  /// Drains the rate-limited-time accumulators of still-active QPs into
  /// the attribution engine (finished flows harvest themselves). Called
  /// before an attribution dump so in-flight flows are represented too.
  void flush_attribution();

  /// Invokes `fn(flow_id, current_rate)` for every active sender QP — the
  /// invariant checker's window onto the RP rate machines.
  template <class Fn>
  void for_each_qp_rate(Fn&& fn) const {
    for (const auto& [flow_id, f] : tx_flows_) fn(flow_id, f.rp.current_rate());
  }

 private:
  // Delivers arrivals and reports uplink dequeues by direct call.
  friend class NetDevice;

  struct FlowTx {
    NodeId dst = 0;
    std::uint64_t qp_key = 0;
    std::int64_t size = 0;
    std::int64_t sent = 0;
    int in_nic = 0;          // packets queued in the NIC, backpressure cap 2
    bool blocked = false;    // waiting for the NIC to drain
    bool wait_scheduled = false;  // pacing wakeup pending
    Time next_time = 0;      // earliest next injection per the paced rate
    std::uint64_t rp_gen = 0;
    dcqcn::RpState rp;
    FlowTx(const dcqcn::DcqcnParams* p, Rate line, Time now,
           dcqcn::RpCounters* counters)
        : rp(p, line, now, counters) {}
  };
  struct FlowRx {
    std::int64_t total = 0;
    std::int64_t received = 0;
    dcqcn::NpState np;
  };

  void try_send(std::uint64_t flow_id);
  void schedule_rp_timer(std::uint64_t flow_id, FlowTx& f);
  void on_nic_dequeue(const Packet& pkt);
  void handle_data(const Packet& pkt);
  void handle_ack(const Packet& pkt);
  void handle_cnp(const Packet& pkt);
  void maybe_finish_tx(std::uint64_t flow_id);

  Simulator* sim_;
  dcqcn::DcqcnParams params_;
  std::unique_ptr<NetDevice> uplink_;
  std::int64_t mtu_bytes_ = 1024;

  /// The active sender QP of `flow_id`, or nullptr.
  FlowTx* find_tx(std::uint64_t flow_id) {
    FlowTx** f = tx_index_.find(flow_id);
    return f == nullptr ? nullptr : *f;
  }

  // Sender state. set_dcqcn_params walks tx_flows_ to re-arm RP timers, so
  // its iteration order feeds scheduling and the container stays; the
  // per-packet lookups go through tx_index_ (unordered_map nodes never
  // move, so each pointer holds until its flow is erased from both).
  std::unordered_map<std::uint64_t, FlowTx> tx_flows_;
  common::FlatTable<FlowTx*> tx_index_;
  // Receive state of the flows in flight towards this host: created by a
  // flow's first segment, erased when its last byte arrives. Only ever
  // looked up, never iterated.
  common::FlatTable<FlowRx> rx_flows_;

  bool tx_counters_on_[kTxCounterChannels] = {};
  common::FlatTable<std::int64_t> mi_tx_bytes_[kTxCounterChannels];
  double mi_rtt_norm_sum_ = 0.0;
  std::uint64_t mi_rtt_norm_count_ = 0;
  double mi_rtt_raw_sum_ = 0.0;
  std::uint64_t mi_rtt_raw_count_ = 0;
  // Registry-owned counters ("host.<id>.…"); accessors read the handles.
  obs::Counter cnps_sent_;
  obs::Counter cnps_received_;
  obs::Counter cnps_suppressed_;
  obs::Counter rx_data_bytes_;
  // Aggregated per-host RP stage counts; every QP's RpState bumps this one
  // instance (per-QP instruments would not scale), surfaced as gauges.
  dcqcn::RpCounters rp_counters_;

  FlowCompleteFn on_complete_;
  BaseRttFn base_rtt_;

  // ---- DCQCN+ baseline state ----
  bool dcqcn_plus_ = false;
  Time dcqcnp_base_interval_ = 0;
  Time dcqcnp_window_ = 0;
  dcqcn::DcqcnParams dcqcnp_base_params_;
  /// flow -> last time a CE-marked packet of it arrived (NP incast gauge).
  std::unordered_map<std::uint64_t, Time> marked_flows_;
};

}  // namespace paraleon::sim
