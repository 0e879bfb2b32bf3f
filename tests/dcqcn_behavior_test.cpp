// Network-level DCQCN behaviour: fairness, queue control by ECN
// thresholds and CNP pacing.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace paraleon::sim {
namespace {

ClosConfig behaviour_clos() {
  ClosConfig cfg;
  cfg.n_tor = 2;
  cfg.n_leaf = 1;
  cfg.hosts_per_tor = 4;
  cfg.host_link = gbps(10);
  cfg.fabric_link = gbps(20);
  cfg.prop_delay = microseconds(1);
  cfg.dcqcn = dcqcn::scaled_for_line_rate(dcqcn::default_params(),
                                          gbps(100), gbps(10));
  // CNP/cut pacing on the order of the fabric RTT avoids the over-cutting
  // cascade and gives textbook AIMD dynamics.
  cfg.dcqcn.min_time_between_cnps = microseconds(50);
  cfg.dcqcn.rate_reduce_monitor_period = microseconds(50);
  return cfg;
}

/// Samples one device's data-queue depth at construction and then every
/// 100 us through `until`, keeping the deepest sample and its time.
class QueuePeakSampler {
 public:
  QueuePeakSampler(Simulator* sim, const NetDevice* dev, Time until)
      : sim_(sim), dev_(dev), until_(until) {
    sample();
  }

  double depth_bytes = 0.0;
  Time at = 0;

 private:
  static constexpr Time kInterval = microseconds(100);

  void sample() {
    const double depth = static_cast<double>(dev_->data_queue_bytes());
    if (depth > depth_bytes) {
      depth_bytes = depth;
      at = sim_->now();
    }
    if (sim_->now() + kInterval <= until_) {
      sim_->schedule_in(kInterval, [this] { sample(); });
    }
  }

  Simulator* sim_;
  const NetDevice* dev_;
  Time until_;
};

TEST(DcqcnBehaviour, TwoFlowsShareBottleneckFairly) {
  Simulator sim;
  ClosTopology topo(&sim, behaviour_clos());
  // Both flows into host 0: its 10G downlink is the bottleneck.
  topo.host(1).start_flow(1, 0, 64 << 20);
  topo.host(2).start_flow(2, 0, 64 << 20);
  sim.run_until(milliseconds(30));  // converge
  // Compare goodput over a measurement window.
  const std::int64_t a0 = topo.host(1).uplink().tx_data_bytes();
  const std::int64_t b0 = topo.host(2).uplink().tx_data_bytes();
  sim.run_until(milliseconds(60));
  const double a = static_cast<double>(
      topo.host(1).uplink().tx_data_bytes() - a0);
  const double b = static_cast<double>(
      topo.host(2).uplink().tx_data_bytes() - b0);
  ASSERT_GT(a, 0.0);
  ASSERT_GT(b, 0.0);
  // AIMD fairness: within 2x of each other over a 30 ms window.
  EXPECT_LT(std::max(a, b) / std::min(a, b), 2.0);
  // And together they use most of the bottleneck.
  EXPECT_GT((a + b) * 8.0 / 0.030, 10e9 * 0.6);
}

// Bound used below: well below the 12 MB buffer; generous multiple of
// kmax to allow for the control-loop delay at 10G.
std::int64_t naive_cap() { return 1 << 20; }

TEST(DcqcnBehaviour, EcnThresholdsBoundQueueDepth) {
  // Persistent 3-to-1 congestion: the bottleneck queue must hover around
  // the marking band, far below the (large) PFC-free buffer.
  Simulator sim;
  auto cfg = behaviour_clos();
  cfg.dcqcn.kmin_bytes = 20 << 10;
  cfg.dcqcn.kmax_bytes = 60 << 10;
  cfg.dcqcn.pmax = 0.5;
  ClosTopology topo(&sim, cfg);
  // Host 0's downlink is ToR0 port 0.
  QueuePeakSampler peak(&sim, &topo.tor(0).port(0), milliseconds(50));
  for (int src = 1; src < 4; ++src) {
    topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0, 64 << 20);
  }
  sim.run_until(milliseconds(50));
  EXPECT_GT(peak.depth_bytes, 10 << 10);  // congestion actually built up
  EXPECT_LT(peak.depth_bytes, naive_cap());  // and ECN kept it bounded
  EXPECT_GT(peak.at, 0);  // the peak was not the immediate t=0 sample
}

TEST(DcqcnBehaviour, HigherKmaxDeeperQueues) {
  const auto peak_for = [](std::int64_t kmax) {
    Simulator sim;
    auto cfg = behaviour_clos();
    cfg.dcqcn.kmin_bytes = kmax / 4;
    cfg.dcqcn.kmax_bytes = kmax;
    ClosTopology topo(&sim, cfg);
    QueuePeakSampler peak(&sim, &topo.tor(0).port(0), milliseconds(40));
    for (int src = 1; src < 4; ++src) {
      topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0,
                                64 << 20);
    }
    sim.run_until(milliseconds(40));
    return peak.depth_bytes;
  };
  EXPECT_LT(peak_for(40 << 10), peak_for(640 << 10));
}

TEST(DcqcnBehaviour, CnpPacingLimitsCnpRate) {
  const auto cnps_for = [](Time gap) {
    Simulator sim;
    auto cfg = behaviour_clos();
    cfg.dcqcn.min_time_between_cnps = gap;
    cfg.dcqcn.kmin_bytes = 8 << 10;
    cfg.dcqcn.kmax_bytes = 32 << 10;
    ClosTopology topo(&sim, cfg);
    for (int src = 1; src < 4; ++src) {
      topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0,
                                16 << 20);
    }
    sim.run_until(milliseconds(30));
    return topo.host(0).cnps_sent();
  };
  const auto fast = cnps_for(microseconds(4));
  const auto slow = cnps_for(microseconds(200));
  EXPECT_GT(fast, 2 * slow);
}

TEST(DcqcnBehaviour, LongerCutPeriodSustainsHigherRate) {
  // Over-cutting demonstration: with cut pacing far below the fabric RTT,
  // one congestion event lands many cuts and throughput collapses.
  const auto goodput_for = [](Time rrmp) {
    Simulator sim;
    auto cfg = behaviour_clos();
    cfg.dcqcn.rate_reduce_monitor_period = rrmp;
    cfg.dcqcn.min_time_between_cnps = microseconds(4);
    cfg.dcqcn.kmin_bytes = 10 << 10;
    cfg.dcqcn.kmax_bytes = 40 << 10;
    ClosTopology topo(&sim, cfg);
    topo.host(1).start_flow(1, 0, 64 << 20);
    topo.host(2).start_flow(2, 0, 64 << 20);
    sim.run_until(milliseconds(40));
    return topo.host(1).uplink().tx_data_bytes() +
           topo.host(2).uplink().tx_data_bytes();
  };
  EXPECT_GT(goodput_for(microseconds(80)), goodput_for(microseconds(2)));
}

}  // namespace
}  // namespace paraleon::sim
