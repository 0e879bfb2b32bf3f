// Shared-buffer RoCEv2 switch: ECMP routing, ECN marking (the DCQCN
// Congestion Point), and dynamic-threshold PFC.
//
// Buffering model: a single shared memory of `buffer_bytes`. Each data
// packet is accounted against the ingress port it arrived on; an ingress
// queue whose footprint exceeds the dynamic threshold
//     xoff = pfc_alpha * (buffer - total_used)
// sends a PFC pause upstream, and resumes (XON) once it drains 2 MTU below
// the threshold. Control packets bypass the MMU (they are tiny and ride the
// strict-priority class). Packets that would overflow the shared buffer are
// dropped and counted — with correctly provisioned headroom this stays 0.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "obs/counters.hpp"
#include "sim/net_device.hpp"
#include "sim/node.hpp"
#include "sim/sketch_hook.hpp"
#include "sim/simulator.hpp"

namespace paraleon::sim {

/// Switch-side DCQCN (CP) marking configuration; updated at runtime by the
/// tuner.
struct EcnConfig {
  std::int64_t kmin_bytes = 100 * 1024;
  std::int64_t kmax_bytes = 400 * 1024;
  double pmax = 0.2;
};

struct SwitchConfig {
  std::int64_t buffer_bytes = 12ll * 1024 * 1024;  // paper: 12 MB
  double pfc_alpha = 1.0 / 8.0;                    // paper §V
  // XOFF quanta; XON cuts it short
  Time pfc_pause_duration = microseconds(65);
  std::int64_t mtu_bytes = 1024;
  bool pfc_enabled = true;
};

class SwitchNode final : public Node {
 public:
  SwitchNode(Simulator* sim, NodeId id, SwitchConfig cfg,
             std::uint64_t ecmp_salt);

  /// Wires a new egress port towards `peer` (arriving there on
  /// `peer_port`). Returns the local port index.
  int add_port(Node* peer, int peer_port, Rate rate, Time prop_delay);

  /// Declares that `dst` is reachable via any of `ports` (ECMP set).
  void set_route(NodeId dst, std::vector<int> ports);

  /// A packet fully arrived on local port `in_port`; consumes the handle
  /// (forwarded, or freed when it ends here).
  void receive(PacketHandle pkt, int in_port);
  /// Injects a copy of `pkt` as if it arrived on `in_port`.
  void receive(const Packet& pkt, int in_port) {
    receive(sim_->packets().alloc(pkt), in_port);
  }

  // ---- runtime-tunable knobs ----
  void set_ecn(const EcnConfig& ecn) { ecn_ = ecn; }
  const EcnConfig& ecn() const { return ecn_; }
  void attach_sketch(SketchHook* sketch) { sketch_ = sketch; }

  // ---- introspection / monitor ----
  int port_count() const { return static_cast<int>(ports_.size()); }
  NetDevice& port(int i) { return *ports_[i]; }
  const NetDevice& port(int i) const { return *ports_[i]; }
  std::int64_t buffer_used() const { return used_; }
  std::int64_t ingress_bytes(int port) const { return ingress_bytes_[port]; }
  std::int64_t rx_data_bytes(int port) const { return rx_data_bytes_[port]; }
  std::uint64_t drops() const {
    return static_cast<std::uint64_t>(drops_.value());
  }
  std::uint64_t ecn_marks() const {
    return static_cast<std::uint64_t>(ecn_marks_.value());
  }
  std::uint64_t pfc_pauses_sent() const {
    return static_cast<std::uint64_t>(pfc_sent_count_.value());
  }
  /// Whether a PFC pause towards the upstream on `port` is latched (an XOFF
  /// was sent and no resume yet) — the invariant checker's pairing input.
  bool pfc_pause_latched(int port) const { return pause_sent_[port]; }
  /// Sum of paused time over all egress ports (monitor O_PFC input).
  Time total_paused_time() const;
  const SwitchConfig& config() const { return cfg_; }
  /// RNG-free deterministic forwarding: returns the ECMP port for a flow.
  int route_port(NodeId dst, std::uint64_t flow_id) const;

  /// Test-only fault injection: skews the shared-buffer occupancy counter
  /// without touching any per-ingress counter, breaking the MMU
  /// conservation invariant. Exists so the invariant-checker tests can
  /// prove a corrupted accounting path is actually detected.
  void inject_buffer_accounting_fault(std::int64_t delta) { used_ += delta; }

 private:
  // Delivers arrivals and reports egress dequeues by direct call.
  friend class NetDevice;

  void admit_data(PacketHandle h, int in_port);
  void account_dequeue(const Packet& pkt, int in_port);
  void maybe_mark_ecn(Packet& pkt, const NetDevice& egress);
  void check_pfc_xoff(int in_port);
  void check_pfc_xon(int in_port);
  void ensure_pause_scan();
  void pause_scan();
  std::int64_t xoff_threshold() const;

  Simulator* sim_;
  SwitchConfig cfg_;
  EcnConfig ecn_;
  std::uint64_t ecmp_salt_;
  std::vector<std::unique_ptr<NetDevice>> ports_;
  // ECMP port set per destination id; empty = no route.
  std::vector<std::vector<int>> routes_;

  std::int64_t used_ = 0;
  std::vector<std::int64_t> ingress_bytes_;
  std::vector<std::int64_t> rx_data_bytes_;
  std::vector<bool> pause_sent_;
  std::vector<Time> last_pause_sent_;
  bool pause_scan_active_ = false;
  // Registry-owned counters ("switch.<id>.…"); the accessors above read
  // through the handles so existing callers keep working.
  obs::Counter drops_;
  obs::Counter ecn_marks_;
  obs::Counter pfc_sent_count_;
  SketchHook* sketch_ = nullptr;

  // Deterministic ECN marking: a dedicated per-switch counter-free hash
  // stream derived from (salt, packets seen) keeps runs reproducible.
  std::uint64_t mark_stream_ = 0;
};

}  // namespace paraleon::sim
