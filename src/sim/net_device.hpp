// One directed link endpoint: an egress transmitter with a strict-priority
// control queue and a PFC-pausable data FIFO, feeding a fixed-rate link
// with propagation delay.
//
// Each packet leaving the queue is reported to the owning node by direct
// call: MMU accounting on a switch, QP backpressure on a host. Counters
// feed the Runtime Metric Monitor: transmitted data bytes (throughput /
// utilisation) and accumulated paused time (the O_PFC term of the utility
// function). Queue storage is a flat common::Ring of 8-byte (handle,
// ingress port) items per class — contiguous, allocation-free at steady
// state; the packet bodies stay in the Simulator's PacketPool.
#pragma once

#include <cstdint>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "obs/counters.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace paraleon::sim {

class Node;

class NetDevice {
 public:
  /// `owner` is told of every dequeue (nullptr: nobody); `peer` receives
  /// every packet that crosses the link.
  NetDevice(Simulator* sim, Node* owner, Node* peer, int peer_port,
            Rate rate, Time propagation_delay);

  /// Queues a pooled packet for transmission, taking ownership of the
  /// handle; control priority preempts data at packet boundaries.
  void enqueue(PacketHandle pkt, int in_port);
  /// Queues a copy of `pkt` (a newly born packet) in a fresh pool slot.
  void enqueue(const Packet& pkt, int in_port) {
    enqueue(sim_->packets().alloc(pkt), in_port);
  }

  /// PFC XOFF: pause the data class for `duration` (extends any current
  /// pause). Control traffic keeps flowing.
  void pause_data(Time duration);

  /// PFC XON: cancel the pause immediately.
  void resume_data();

  bool data_paused() const;

  /// Bytes waiting in the data queue (the CP marking signal).
  std::int64_t data_queue_bytes() const { return data_bytes_; }
  std::size_t data_queue_packets() const { return data_q_.size(); }
  std::int64_t ctrl_queue_bytes() const { return ctrl_bytes_; }

  Rate rate() const { return rate_; }
  Time propagation_delay() const { return prop_delay_; }
  Node* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }

  // ---- monitor counters ----
  std::int64_t tx_data_bytes() const { return tx_data_bytes_; }
  std::int64_t tx_ctrl_bytes() const { return tx_ctrl_bytes_; }
  std::uint64_t tx_data_packets() const { return tx_data_packets_; }
  /// Total time the data class has spent paused, including the currently
  /// open pause span up to now().
  Time paused_time() const;
  std::uint64_t pause_events() const { return pause_events_; }
  /// XOFF frames honoured (every pause_data call, including refreshes of
  /// an already-open pause) — the "PFC pauses received" counter.
  std::uint64_t pause_frames_received() const { return pause_frames_rx_; }

  // ---- pause-kick bookkeeping (invariant checker + tests) ----
  /// True while a wake-up kick event is pending for the open pause.
  bool kick_armed() const { return kick_armed_; }
  /// Fire time of the pending kick (meaningful while kick_armed()); may
  /// trail pause_until() after an extension — the kick re-arms itself.
  Time kick_deadline() const { return kick_deadline_; }
  Time pause_until() const { return pause_until_; }
  /// Kick events ever scheduled; the checker asserts this never exceeds
  /// pause_frames_received() (the pre-fix storm scheduled one per frame).
  std::uint64_t kicks_scheduled() const { return kicks_scheduled_; }

  // ---- TTL expiry bookkeeping (invariant checker + monitor) ----
  /// Packets dropped here because their hop budget expired. Nonzero means
  /// a routing loop; CheckLevel::kFull fails the run naming the flow.
  std::uint64_t ttl_drops() const { return ttl_drops_; }
  std::uint64_t last_ttl_expired_flow() const { return last_ttl_flow_; }

 private:
  struct Queued {
    PacketHandle pkt{};
    int in_port = -1;  // ingress port at the owning node; -1 = locally born
  };

  void try_transmit();
  void finish_transmit(Queued item);
  /// Tells the owner that `pkt` finished serialising (left the buffer).
  void notify_owner(const Packet& pkt, int in_port);
  /// Hands a packet that crossed the link to the peer.
  void deliver(PacketHandle pkt);
  /// Schedules the pause-end wake-up at the current pause_until_.
  void schedule_kick(std::uint64_t gen);
  /// The scheduled wake-up: voided by generation on early resume,
  /// re-armed (not duplicated) when the pause was extended meanwhile.
  void pause_kick(std::uint64_t gen);
  void drop_expired(const Packet& pkt);
  /// Attribution hook at pause end: charges every distinct flow still in
  /// the data queue the whole pause span it just sat through.
  void charge_blocked_flows(Time span_ns);

  Simulator* sim_;
  Node* owner_;
  Node* peer_;
  int peer_port_;
  Rate rate_;
  Time prop_delay_;

  common::Ring<Queued> ctrl_q_;
  common::Ring<Queued> data_q_;
  std::int64_t ctrl_bytes_ = 0;
  std::int64_t data_bytes_ = 0;
  bool busy_ = false;

  Time pause_until_ = 0;
  Time pause_start_ = 0;
  Time paused_accum_ = 0;
  std::uint64_t pause_events_ = 0;
  std::uint64_t pause_frames_rx_ = 0;
  std::uint64_t kick_generation_ = 0;
  bool kick_armed_ = false;
  Time kick_deadline_ = 0;
  std::uint64_t kicks_scheduled_ = 0;

  std::uint64_t ttl_drops_ = 0;
  std::uint64_t last_ttl_flow_ = 0;
  /// Lazily bound to the registry's "sim.ttl_expired" on first drop, so a
  /// clean run's registry snapshot (and its digest) is unchanged.
  obs::Counter ttl_expired_;

  std::int64_t tx_data_bytes_ = 0;
  std::int64_t tx_ctrl_bytes_ = 0;
  std::uint64_t tx_data_packets_ = 0;
};

}  // namespace paraleon::sim
