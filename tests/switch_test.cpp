// SwitchNode: routing, ECMP, ECN marking, MMU accounting and PFC.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/check.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/switch_node.hpp"

namespace paraleon::sim {
namespace {

class RecorderNode : public TapNode {
 public:
  RecorderNode(Simulator* sim, NodeId id) : TapNode(id), sim_(sim) {
    on_receive = [this](const Packet& pkt, int in_port) {
      arrivals.push_back({sim_->now(), pkt, in_port});
    };
  }
  struct Arrival {
    Time t;
    Packet pkt;
    int in_port;
  };
  std::vector<Arrival> arrivals;
  std::size_t count(PacketType t) const {
    std::size_t n = 0;
    for (const auto& a : arrivals) n += (a.pkt.type == t);
    return n;
  }

 private:
  Simulator* sim_;
};

Packet data_to(NodeId dst, std::uint64_t flow, std::uint32_t bytes = 1000) {
  Packet p;
  p.flow_id = flow;
  p.src = 1000;
  p.dst = dst;
  p.type = PacketType::kData;
  p.priority = kPriorityData;
  p.size_bytes = bytes;
  return p;
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() {
    SwitchConfig cfg;
    cfg.buffer_bytes = 64 * 1024;  // small for easy PFC/drop triggering
    cfg.pfc_alpha = 1.0 / 8.0;
    cfg.mtu_bytes = 1000;
    sw_ = std::make_unique<SwitchNode>(&sim_, 500, cfg, /*salt=*/7);
    // Ports 0 and 1 face hosts a and b; everything to host id 0 goes out
    // port 0, host id 1 out port 1.
    a_ = std::make_unique<RecorderNode>(&sim_, 0);
    b_ = std::make_unique<RecorderNode>(&sim_, 1);
    sw_->add_port(a_.get(), 0, gbps(10), microseconds(1));
    sw_->add_port(b_.get(), 0, gbps(10), microseconds(1));
    sw_->set_route(0, {0});
    sw_->set_route(1, {1});
  }
  Simulator sim_;
  std::unique_ptr<SwitchNode> sw_;
  std::unique_ptr<RecorderNode> a_;
  std::unique_ptr<RecorderNode> b_;
};

TEST_F(SwitchTest, RoutesDataToDestinationPort) {
  sw_->receive(data_to(1, 42), 0);
  sim_.run();
  EXPECT_EQ(b_->arrivals.size(), 1u);
  EXPECT_TRUE(a_->arrivals.empty());
}

TEST_F(SwitchTest, MmuAccountingReturnsToZero) {
  for (int i = 0; i < 10; ++i) sw_->receive(data_to(1, 42), 0);
  EXPECT_GT(sw_->buffer_used(), 0);
  sim_.run();
  EXPECT_EQ(sw_->buffer_used(), 0);
  EXPECT_EQ(sw_->ingress_bytes(0), 0);
}

TEST_F(SwitchTest, ControlBypassesMmu) {
  Packet ack;
  ack.type = PacketType::kAck;
  ack.priority = kPriorityControl;
  ack.size_bytes = 64;
  ack.dst = 1;
  sw_->receive(ack, 0);
  EXPECT_EQ(sw_->buffer_used(), 0);
  sim_.run();
  EXPECT_EQ(b_->count(PacketType::kAck), 1u);
}

TEST_F(SwitchTest, DropsWhenBufferFull) {
  // Buffer 64 KB, packets 1000 B: pushing 200 in one instant must drop
  // some (all beyond ~64 in-flight), and count them.
  for (int i = 0; i < 200; ++i) sw_->receive(data_to(1, 42), 0);
  EXPECT_GT(sw_->drops(), 0u);
  sim_.run();
  EXPECT_EQ(b_->count(PacketType::kData) + sw_->drops(), 200u);
}

TEST_F(SwitchTest, EcnMarksAboveKmax) {
  EcnConfig ecn;
  ecn.kmin_bytes = 2000;
  ecn.kmax_bytes = 5000;
  ecn.pmax = 0.2;
  sw_->set_ecn(ecn);
  for (int i = 0; i < 30; ++i) sw_->receive(data_to(1, 42), 0);
  sim_.run();
  // Packets enqueued once the egress queue exceeded kmax must all be
  // marked; below kmin never marked. With 30 instantaneous packets the
  // queue sweeps the whole range.
  std::size_t marked = 0;
  for (const auto& arr : b_->arrivals) marked += arr.pkt.ecn_ce;
  EXPECT_GT(marked, 20u);  // >kmax region: ~24 packets
  EXPECT_FALSE(b_->arrivals[0].pkt.ecn_ce);  // empty queue on first packet
  EXPECT_EQ(sw_->ecn_marks(), marked);
}

TEST_F(SwitchTest, NoMarksBelowKmin) {
  EcnConfig ecn;
  ecn.kmin_bytes = 1 << 20;
  ecn.kmax_bytes = 2 << 20;
  ecn.pmax = 1.0;
  sw_->set_ecn(ecn);
  for (int i = 0; i < 50; ++i) sw_->receive(data_to(1, 42), 0);
  sim_.run();
  for (const auto& arr : b_->arrivals) EXPECT_FALSE(arr.pkt.ecn_ce);
}

TEST_F(SwitchTest, PfcPauseSentWhenIngressExceedsThreshold) {
  // alpha/8 of (64KB - used): with ~16 packets queued the dynamic
  // threshold (~6KB) is crossed.
  for (int i = 0; i < 30; ++i) sw_->receive(data_to(1, 42), 0);
  sim_.run_until(microseconds(5));
  EXPECT_GT(sw_->pfc_pauses_sent(), 0u);
  // The pause frame goes upstream out of the ingress port (port 0 -> a).
  EXPECT_GE(a_->count(PacketType::kPfcPause), 1u);
}

TEST_F(SwitchTest, PfcResumeSentAfterDrain) {
  for (int i = 0; i < 30; ++i) sw_->receive(data_to(1, 42), 0);
  sim_.run();
  EXPECT_GE(a_->count(PacketType::kPfcResume), 1u);
  // Resume must come after the pause.
  Time pause_t = -1, resume_t = -1;
  for (const auto& arr : a_->arrivals) {
    if (arr.pkt.type == PacketType::kPfcPause && pause_t < 0) pause_t = arr.t;
    if (arr.pkt.type == PacketType::kPfcResume) resume_t = arr.t;
  }
  EXPECT_GT(resume_t, pause_t);
}

TEST_F(SwitchTest, PfcDisabledSendsNothing) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 64 * 1024;
  cfg.pfc_enabled = false;
  SwitchNode sw(&sim_, 501, cfg, 7);
  RecorderNode h(&sim_, 3);
  sw.add_port(&h, 0, gbps(10), microseconds(1));
  sw.set_route(3, {0});
  for (int i = 0; i < 40; ++i) sw.receive(data_to(3, 1), 0);
  sim_.run();
  EXPECT_EQ(h.count(PacketType::kPfcPause), 0u);
}

TEST_F(SwitchTest, ReceivedPauseFreezesEgress) {
  sw_->receive(data_to(1, 42), 0);
  sim_.run();
  const auto before = b_->arrivals.size();
  // Pause arriving on port 1 freezes the egress towards b.
  sw_->receive(make_pfc(PacketType::kPfcPause, microseconds(100)), 1);
  sw_->receive(data_to(1, 42), 0);
  sim_.run_until(microseconds(50));
  EXPECT_EQ(b_->count(PacketType::kData), before);
  sim_.run();
  EXPECT_EQ(b_->count(PacketType::kData), before + 1);
}

TEST_F(SwitchTest, EcmpSpreadsFlowsAcrossPorts) {
  // Destination 9 reachable via both ports.
  sw_->set_route(9, {0, 1});
  std::set<int> ports_used;
  for (std::uint64_t f = 0; f < 64; ++f) {
    ports_used.insert(sw_->route_port(9, f));
  }
  EXPECT_EQ(ports_used.size(), 2u);
}

TEST_F(SwitchTest, EcmpStablePerFlow) {
  sw_->set_route(9, {0, 1});
  for (std::uint64_t f = 0; f < 16; ++f) {
    const int p = sw_->route_port(9, f);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(sw_->route_port(9, f), p);
  }
}

TEST_F(SwitchTest, SketchHookSeesUnmarkedPacketsOnly) {
  struct CountingHook : SketchHook {
    int calls = 0;
    bool on_data_packet(const Packet&) override {
      ++calls;
      return true;
    }
  } hook;
  sw_->attach_sketch(&hook);
  sw_->receive(data_to(1, 42), 0);
  Packet marked = data_to(1, 43);
  marked.sketch_marked = true;
  sw_->receive(marked, 0);
  sim_.run();
  EXPECT_EQ(hook.calls, 1);
  // The unmarked packet left the switch carrying the TOS bit.
  bool found_marked_output = false;
  for (const auto& arr : b_->arrivals) {
    if (arr.pkt.flow_id == 42) found_marked_output = arr.pkt.sketch_marked;
  }
  EXPECT_TRUE(found_marked_output);
}

TEST_F(SwitchTest, MissingRouteDiagnosticNamesSwitchAndDestination) {
  // No route to host 77 was installed: the lookup must fail loudly (also
  // in release builds) and the diagnostic must name this switch (id 500)
  // and the unroutable destination so a miswired topology is debuggable.
  try {
    sw_->receive(data_to(/*dst=*/77, /*flow=*/5), 0);
    FAIL() << "forwarding without a route must throw";
  } catch (const check::CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("500"), std::string::npos) << what;
    EXPECT_NE(what.find("77"), std::string::npos) << what;
    EXPECT_NE(what.find("route"), std::string::npos) << what;
  }
}

TEST_F(SwitchTest, RoutePortDiagnosticDirectLookup) {
  EXPECT_THROW(sw_->route_port(/*dst=*/77, /*flow_id=*/5),
               check::CheckFailure);
}

}  // namespace
}  // namespace paraleon::sim
