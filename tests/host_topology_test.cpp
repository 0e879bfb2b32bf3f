// End-to-end host/RNIC behaviour on real CLOS fabrics: flow delivery,
// DCQCN reaction, PFC backpressure, RTT sampling, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/check.hpp"
#include "dcqcn/params.hpp"
#include "sim/host_node.hpp"
#include "sim/net_device.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace paraleon::sim {
namespace {

ClosConfig small_clos() {
  ClosConfig cfg;
  cfg.n_tor = 2;
  cfg.n_leaf = 2;
  cfg.hosts_per_tor = 4;
  cfg.host_link = gbps(10);
  cfg.fabric_link = gbps(10);
  cfg.prop_delay = microseconds(1);
  cfg.dcqcn = dcqcn::scaled_for_line_rate(dcqcn::default_params(), gbps(100),
                                          gbps(10));
  return cfg;
}

TEST(ClosTopology, Construction) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  EXPECT_EQ(topo.host_count(), 8);
  EXPECT_EQ(topo.tor_count(), 2);
  EXPECT_EQ(topo.leaf_count(), 2);
  // ToR ports: 4 host-facing + 2 uplinks.
  EXPECT_EQ(topo.tor(0).port_count(), 6);
  // Leaf ports: one per ToR.
  EXPECT_EQ(topo.leaf(0).port_count(), 2);
}

TEST(ClosTopology, HopCounts) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  EXPECT_EQ(topo.hop_count(0, 0), 0);
  EXPECT_EQ(topo.hop_count(0, 1), 2);  // same ToR
  EXPECT_EQ(topo.hop_count(0, 4), 4);  // cross ToR
  EXPECT_EQ(topo.base_rtt(0, 1), 4 * microseconds(1));
  EXPECT_EQ(topo.base_rtt(0, 4), 8 * microseconds(1));
}

TEST(ClosTopology, IdealFct) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  // 1 MB at 10 Gbps ~ 838.9 us serialisation + 4 us one-way base delay.
  const Time ideal = topo.ideal_fct(1 << 20, 0, 4);
  EXPECT_NEAR(static_cast<double>(ideal),
              (1 << 20) * 8.0 / 10e9 * 1e9 + 4000.0, 10.0);
}

TEST(HostFlow, SingleFlowCompletesNearIdeal) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  Time finish = -1;
  topo.host(4).set_on_flow_complete(
      [&](std::uint64_t, Time t) { finish = t; });
  topo.host(0).start_flow(1, 4, 100 * 1024);
  sim.run_until(milliseconds(10));
  ASSERT_GT(finish, 0);
  const Time ideal = topo.ideal_fct(100 * 1024, 0, 4);
  // Within 2x of ideal on an idle fabric (store-and-forward hops and the
  // MTU pipeline add latency beyond the analytic ideal).
  EXPECT_LT(finish, 2 * ideal);
  EXPECT_GE(finish, ideal);
}

TEST(HostFlow, IntraRackFlowCompletes) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  Time finish = -1;
  topo.host(1).set_on_flow_complete(
      [&](std::uint64_t, Time t) { finish = t; });
  topo.host(0).start_flow(1, 1, 64 * 1024);
  sim.run_until(milliseconds(5));
  EXPECT_GT(finish, 0);
}

TEST(HostFlow, ManyToOneIncastAllComplete) {
  Simulator sim;
  auto cfg = small_clos();
  ClosTopology topo(&sim, cfg);
  int completed = 0;
  topo.host(0).set_on_flow_complete([&](std::uint64_t, Time) { ++completed; });
  // 7-to-1 incast into host 0.
  for (int src = 1; src < 8; ++src) {
    topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0, 256 * 1024);
  }
  sim.run_until(milliseconds(50));
  EXPECT_EQ(completed, 7);
  EXPECT_EQ(topo.total_drops(), 0u) << "lossless fabric must not drop";
}

TEST(HostFlow, IncastTriggersCnpsAndRateCuts) {
  Simulator sim;
  auto cfg = small_clos();
  // Aggressive marking so congestion produces CNPs quickly.
  cfg.dcqcn.kmin_bytes = 10 * 1024;
  cfg.dcqcn.kmax_bytes = 40 * 1024;
  ClosTopology topo(&sim, cfg);
  for (int src = 1; src < 8; ++src) {
    topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0, 2 << 20);
  }
  sim.run_until(milliseconds(2));
  std::uint64_t cnps = 0;
  for (int h = 0; h < 8; ++h) cnps += topo.host(h).cnps_received();
  EXPECT_GT(cnps, 0u);
  // Senders must have cut below line rate.
  double min_rate = 1e18;
  for (int src = 1; src < 8; ++src) {
    const double r = topo.host(src).qp_rate(static_cast<std::uint64_t>(src));
    if (r > 0) min_rate = std::min(min_rate, r);
  }
  EXPECT_LT(min_rate, cfg.host_link * 0.9);
}

TEST(HostFlow, SevereIncastTriggersPfcNotDrops) {
  Simulator sim;
  auto cfg = small_clos();
  cfg.switch_cfg.buffer_bytes = 256 * 1024;  // tight buffer
  // ECN practically off: force PFC to do the work.
  cfg.dcqcn.kmin_bytes = 200 * 1024;
  cfg.dcqcn.kmax_bytes = 240 * 1024;
  ClosTopology topo(&sim, cfg);
  int completed = 0;
  topo.host(0).set_on_flow_complete([&](std::uint64_t, Time) { ++completed; });
  for (int src = 1; src < 8; ++src) {
    topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0, 1 << 20);
  }
  sim.run_until(milliseconds(20));
  EXPECT_GT(topo.total_paused_time(), 0) << "PFC should have engaged";
  EXPECT_EQ(topo.total_drops(), 0u);
  EXPECT_EQ(completed, 7);
}

TEST(HostFlow, RttSamplesCollected) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  topo.host(0).start_flow(1, 4, 64 * 1024);
  sim.run_until(milliseconds(5));
  const auto [sum, n] = topo.host(0).drain_rtt_raw_samples();
  EXPECT_GT(n, 0u);
  // RTT must exceed the base propagation RTT (8 us).
  EXPECT_GT(sum / static_cast<double>(n),
            static_cast<double>(topo.base_rtt(0, 4)));
}

TEST(HostFlow, NormalizedRttAtMostOne) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  topo.host(0).start_flow(1, 4, 64 * 1024);
  sim.run_until(milliseconds(5));
  const auto [sum, n] = topo.host(0).drain_rtt_norm_samples();
  ASSERT_GT(n, 0u);
  const double avg = sum / static_cast<double>(n);
  EXPECT_GT(avg, 0.0);
  EXPECT_LE(avg, 1.0);
}

TEST(HostFlow, PerFlowTxBytesGroundTruth) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  topo.host(0).enable_tx_counters(0);
  topo.host(0).start_flow(1, 4, 64 * 1024);
  topo.host(0).start_flow(2, 5, 32 * 1024);
  sim.run_until(milliseconds(5));
  const HostNode::TxBytes want = {{1, 64 * 1024}, {2, 32 * 1024}};
  EXPECT_EQ(topo.host(0).drain_tx_bytes_per_flow(), want);
  // Drained: second read is empty.
  EXPECT_TRUE(topo.host(0).drain_tx_bytes_per_flow().empty());
}

TEST(HostFlow, TxCountersHoldNothingWithoutAConsumer) {
  // No consumer enabled a channel: a whole run of traffic leaves no
  // per-flow entries behind on either one.
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  for (std::uint64_t f = 1; f <= 20; ++f) {
    topo.host(0).start_flow(f, 4 + static_cast<NodeId>(f % 4), 8 * 1024);
  }
  sim.run_until(milliseconds(5));
  EXPECT_TRUE(topo.host(0).drain_tx_bytes_per_flow(0).empty());
  EXPECT_TRUE(topo.host(0).drain_tx_bytes_per_flow(1).empty());
}

TEST(HostFlow, TxCounterDrainIsKeyOrderedWhateverTheInsertionOrder) {
  // Two hosts put the same bytes per flow on the wire, in opposite
  // orders and over enough flows to grow the counter table: their drains
  // must be identical and sorted by key (the FSD probe sums doubles over
  // this list, so its order reaches a digested series).
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  constexpr int kFlows = 40;
  const auto flow_id = [](int i) {
    return static_cast<std::uint64_t>(i) * 7919 % 1009 + 1;
  };
  const auto size = [](int i) { return std::int64_t{1024} * (1 + i % 5); };
  for (int h : {0, 1}) topo.host(h).enable_tx_counters(1);
  for (int i = 0; i < kFlows; ++i) {
    const int j = kFlows - 1 - i;
    topo.host(0).start_flow(flow_id(i), 4, size(i));
    topo.host(1).start_flow(flow_id(j), 5, size(j));
  }
  sim.run_until(milliseconds(5));
  const HostNode::TxBytes a = topo.host(0).drain_tx_bytes_per_flow(1);
  const HostNode::TxBytes b = topo.host(1).drain_tx_bytes_per_flow(1);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(PacketPool, LiveCountReturnsToZeroOnceARunDrains) {
  // Every packet a run creates ends somewhere — delivered to a host,
  // dropped, or consumed as a PFC frame — so a drained run holds none.
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      topo.host(src).start_flow(static_cast<std::uint64_t>(src * 8 + dst + 1),
                                static_cast<NodeId>(dst), 64 * 1024);
    }
  }
  sim.run_until(microseconds(200));
  EXPECT_GT(sim.packets().live(), 0u);
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.packets().live(), 0u);
  EXPECT_GT(sim.packets().capacity(), 0u);
}

TEST(HostFlow, SegmentAfterCompletionFailsLoudly) {
  // Receive state dies with a flow's last byte. A stray copy of that
  // segment must fail, not open fresh state that could report the flow
  // complete a second time.
  Simulator sim;
  HostNode host(&sim, 0, dcqcn::default_params());
  TapNode tor(100);
  std::size_t acks = 0;
  tor.on_receive = [&acks](const Packet& pkt, int) {
    acks += pkt.type == PacketType::kAck ? 1 : 0;
  };
  host.attach_uplink(&tor, 0, gbps(10), microseconds(1));
  NetDevice wire(&sim, &tor, &host, 0, gbps(10), microseconds(1));
  std::vector<std::uint64_t> completed;
  host.set_on_flow_complete(
      [&completed](std::uint64_t id, Time) { completed.push_back(id); });
  const auto segment = [](std::int64_t offset) {
    Packet p;
    p.flow_id = 7;
    p.src = 100;
    p.dst = 0;
    p.type = PacketType::kData;
    p.priority = kPriorityData;
    p.size_bytes = 1000;
    p.offset = offset;
    p.aux = 2000;  // flow size
    return p;
  };
  wire.enqueue(segment(0), -1);
  wire.enqueue(segment(1000), -1);
  sim.run();
  EXPECT_EQ(completed, std::vector<std::uint64_t>{7});
  EXPECT_EQ(acks, 2u);
  EXPECT_EQ(host.rx_flow_count(), 0u);

  wire.enqueue(segment(1000), -1);
  EXPECT_THROW(sim.run(), check::CheckFailure);
  EXPECT_EQ(completed.size(), 1u);
  EXPECT_EQ(host.rx_flow_count(), 0u);
}

TEST(HostFlow, ActiveFlowAccounting) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  EXPECT_FALSE(topo.host(0).has_active_tx());
  topo.host(0).start_flow(1, 4, 1 << 20);
  EXPECT_TRUE(topo.host(0).has_active_tx());
  sim.run_until(milliseconds(20));
  EXPECT_FALSE(topo.host(0).has_active_tx());  // fully injected + drained
}

TEST(HostFlow, ParamUpdateMidFlight) {
  Simulator sim;
  auto cfg = small_clos();
  ClosTopology topo(&sim, cfg);
  topo.host(0).start_flow(1, 4, 4 << 20);
  sim.run_until(microseconds(100));
  auto p = cfg.dcqcn;
  p.kmin_bytes = 1024;
  p.kmax_bytes = 2048;
  topo.set_dcqcn_params_all(p);
  EXPECT_EQ(topo.host(0).dcqcn_params().kmin_bytes, 1024);
  EXPECT_EQ(topo.tor(0).ecn().kmin_bytes, 1024);
  // Flow still completes after the update.
  Time finish = -1;
  topo.host(4).set_on_flow_complete(
      [&](std::uint64_t, Time t) { finish = t; });
  sim.run_until(milliseconds(50));
  EXPECT_GT(finish, 0);
}

TEST(HostFlow, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    auto cfg = small_clos();
    cfg.seed = 77;
    ClosTopology topo(&sim, cfg);
    std::vector<Time> finishes;
    for (int h = 0; h < 8; ++h) {
      topo.host(h).set_on_flow_complete(
          [&](std::uint64_t, Time t) { finishes.push_back(t); });
    }
    for (int src = 1; src < 8; ++src) {
      topo.host(src).start_flow(static_cast<std::uint64_t>(src), 0,
                                512 * 1024);
    }
    sim.run_until(milliseconds(30));
    return finishes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(HostFlow, Alltoall4x4Completes) {
  Simulator sim;
  ClosTopology topo(&sim, small_clos());
  int completed = 0;
  for (int h = 0; h < 8; ++h) {
    topo.host(h).set_on_flow_complete(
        [&](std::uint64_t, Time) { ++completed; });
  }
  std::uint64_t id = 1;
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      topo.host(s).start_flow(id++, static_cast<NodeId>(d), 128 * 1024);
    }
  }
  sim.run_until(milliseconds(50));
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(topo.total_drops(), 0u);
}

}  // namespace
}  // namespace paraleon::sim
