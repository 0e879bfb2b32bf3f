// NetDevice: serialisation timing, priority, PFC pause semantics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/net_device.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace paraleon::sim {
namespace {

/// Records every arriving packet with its time.
class SinkNode : public TapNode {
 public:
  explicit SinkNode(Simulator* sim) : TapNode(99), sim_(sim) {
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

 private:
  Simulator* sim_;
};

Packet data_packet(std::uint32_t bytes, std::uint64_t flow = 1) {
  Packet p;
  p.flow_id = flow;
  p.type = PacketType::kData;
  p.priority = kPriorityData;
  p.size_bytes = bytes;
  return p;
}

Packet ctrl_packet(std::uint32_t bytes = 64) {
  Packet p;
  p.type = PacketType::kAck;
  p.priority = kPriorityControl;
  p.size_bytes = bytes;
  return p;
}

class NetDeviceTest : public ::testing::Test {
 protected:
  NetDeviceTest()
      : sink_(&sim_),
        dev_(&sim_, &owner_, &sink_, 7, gbps(10), microseconds(1)) {}
  Simulator sim_;
  TapNode owner_{98};
  SinkNode sink_;
  NetDevice dev_;
};

TEST_F(NetDeviceTest, DeliversAfterSerializationPlusPropagation) {
  dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  // 1000 B at 10 Gbps = 800 ns; + 1 us propagation.
  EXPECT_EQ(sink_.arrivals[0].t, 800 + microseconds(1));
  EXPECT_EQ(sink_.arrivals[0].in_port, 7);
}

TEST_F(NetDeviceTest, BackToBackSerializesSequentially) {
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 2u);
  EXPECT_EQ(sink_.arrivals[1].t - sink_.arrivals[0].t, 800);
}

TEST_F(NetDeviceTest, ControlPreemptsQueuedData) {
  // Fill with data, then a control packet: it should pass the waiting data.
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(ctrl_packet(), -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 3u);
  // First data was already serialising; control goes second.
  EXPECT_EQ(sink_.arrivals[0].pkt.type, PacketType::kData);
  EXPECT_EQ(sink_.arrivals[1].pkt.type, PacketType::kAck);
  EXPECT_EQ(sink_.arrivals[2].pkt.type, PacketType::kData);
}

TEST_F(NetDeviceTest, PauseStopsDataNotControl) {
  dev_.pause_data(microseconds(100));
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(ctrl_packet(), -1);
  sim_.run_until(microseconds(50));
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].pkt.type, PacketType::kAck);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 2u);
  // Data resumed at 100 us: arrival at 100 us + 800 ns + 1 us.
  EXPECT_EQ(sink_.arrivals[1].t, microseconds(100) + 800 + microseconds(1));
}

TEST_F(NetDeviceTest, ResumeCancelsPause) {
  dev_.pause_data(microseconds(100));
  dev_.enqueue(data_packet(1000), -1);
  sim_.run_until(microseconds(10));
  dev_.resume_data();
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].t, microseconds(10) + 800 + microseconds(1));
}

TEST_F(NetDeviceTest, PauseExtension) {
  dev_.pause_data(microseconds(50));
  sim_.run_until(microseconds(20));
  dev_.pause_data(microseconds(50));  // extends to 70 us
  dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].t, microseconds(70) + 800 + microseconds(1));
}

TEST_F(NetDeviceTest, PausedTimeAccounted) {
  dev_.pause_data(microseconds(40));
  sim_.run();
  EXPECT_EQ(dev_.paused_time(), microseconds(40));
  EXPECT_EQ(dev_.pause_events(), 1u);
}

TEST_F(NetDeviceTest, PausedTimeIncludesOpenSpan) {
  dev_.pause_data(microseconds(100));
  sim_.run_until(microseconds(30));
  EXPECT_EQ(dev_.paused_time(), microseconds(30));
}

TEST_F(NetDeviceTest, CountersSplitDataAndControl) {
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(ctrl_packet(64), -1);
  sim_.run();
  EXPECT_EQ(dev_.tx_data_bytes(), 1000);
  EXPECT_EQ(dev_.tx_ctrl_bytes(), 64);
  EXPECT_EQ(dev_.tx_data_packets(), 1u);
}

TEST_F(NetDeviceTest, OnDequeueHookFires) {
  int hooks = 0;
  owner_.on_dequeue = [&](const Packet&, int in_port) {
    ++hooks;
    EXPECT_EQ(in_port, 5);
  };
  dev_.enqueue(data_packet(1000), 5);
  sim_.run();
  EXPECT_EQ(hooks, 1);
}

TEST_F(NetDeviceTest, QueueBytesTracked) {
  dev_.pause_data(microseconds(10));
  dev_.enqueue(data_packet(1000), -1);
  dev_.enqueue(data_packet(500), -1);
  EXPECT_EQ(dev_.data_queue_bytes(), 1500);
  EXPECT_EQ(dev_.data_queue_packets(), 2u);
  sim_.run();
  EXPECT_EQ(dev_.data_queue_bytes(), 0);
}

TEST_F(NetDeviceTest, TtlDecrementsOnHop) {
  Packet p = data_packet(1000);
  p.ttl = 64;
  dev_.enqueue(p, -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].pkt.ttl, 63);
}

TEST_F(NetDeviceTest, TtlExpiryDropsInsteadOfForwarding) {
  // A packet whose hop budget dies on this hop must be dropped, not
  // delivered with ttl 0 (the old engine forwarded it forever — the TTL
  // black hole).
  Packet doomed = data_packet(1000, /*flow=*/77);
  doomed.ttl = 1;
  dev_.enqueue(doomed, -1);
  Packet fine = data_packet(1000, /*flow=*/78);
  fine.ttl = 2;
  dev_.enqueue(fine, -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].pkt.flow_id, 78u);
  EXPECT_EQ(dev_.ttl_drops(), 1u);
  EXPECT_EQ(dev_.last_ttl_expired_flow(), 77u);
  // The drop frees the line: the survivor still serialized back-to-back.
  EXPECT_EQ(sink_.arrivals[0].t, 2 * 800 + microseconds(1));
}

TEST_F(NetDeviceTest, TtlDropFreesItsPacket) {
  Packet doomed = data_packet(1000, /*flow=*/77);
  doomed.ttl = 1;
  dev_.enqueue(doomed, -1);
  EXPECT_EQ(sim_.packets().live(), 1u);
  sim_.run();
  EXPECT_EQ(dev_.ttl_drops(), 1u);
  EXPECT_EQ(sim_.packets().live(), 0u);
}

TEST(PacketPool, RecyclesHandlesLifo) {
  PacketPool pool;
  Packet p = data_packet(1000, /*flow=*/5);
  const PacketHandle a = pool.alloc(p);
  p.flow_id = 6;
  const PacketHandle b = pool.alloc(p);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool[a].flow_id, 5u);
  EXPECT_EQ(pool[b].flow_id, 6u);
  EXPECT_EQ(pool.live(), 2u);
  pool.free(a);
  pool.free(b);
  EXPECT_EQ(pool.live(), 0u);
  // The last freed slot comes back first, and nothing new is carved.
  p.flow_id = 7;
  EXPECT_EQ(pool.alloc(p), b);
  EXPECT_EQ(pool.alloc(p), a);
  EXPECT_EQ(pool[a].flow_id, 7u);
  EXPECT_EQ(pool.capacity(), 2u);
  const Packet out = pool.take(a);
  EXPECT_EQ(out.flow_id, 7u);
  EXPECT_EQ(pool.live(), 1u);
}

TEST(PacketPool, ReferencesSurviveGrowth) {
  // Slots live in blocks that never move, so a Packet& taken before more
  // allocations (a switch forwarding while it emits a PFC frame) stays
  // valid.
  PacketPool pool;
  const PacketHandle first = pool.alloc(data_packet(64, /*flow=*/1));
  Packet& ref = pool[first];
  for (int i = 0; i < 5000; ++i) pool.alloc(data_packet(64, 2));
  EXPECT_EQ(&ref, &pool[first]);
  EXPECT_EQ(ref.flow_id, 1u);
  EXPECT_EQ(pool.live(), 5001u);
}

TEST_F(NetDeviceTest, TtlZeroOnUntrackedPacketsIsNotDecremented) {
  // ttl == 0 marks "no TTL tracking"; those forward untouched rather
  // than being treated as expired.
  Packet p = data_packet(1000);
  p.ttl = 0;
  dev_.enqueue(p, -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].pkt.ttl, 0u);
  EXPECT_EQ(dev_.ttl_drops(), 0u);
}

TEST_F(NetDeviceTest, PauseKickIsDedupedAcrossExtensions) {
  // One storm of XOFF refreshes used to schedule one wake-up event per
  // frame; now at most one kick is outstanding, relayed forward when the
  // deadline extends.
  for (int i = 0; i < 50; ++i) {
    dev_.pause_data(microseconds(10) + i * microseconds(2));
  }
  EXPECT_TRUE(dev_.kick_armed());
  EXPECT_EQ(dev_.kicks_scheduled(), 1u);
  EXPECT_EQ(dev_.pause_frames_received(), 50u);
  dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  // The relay chain re-arms at most once per expired deadline, so the
  // total stays far below one-per-frame.
  EXPECT_LE(dev_.kicks_scheduled(), 2u);
  EXPECT_FALSE(dev_.kick_armed());
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  // Last extension: paused until 10 us + 49 * 2 us = 108 us.
  EXPECT_EQ(sink_.arrivals[0].t,
            microseconds(108) + 800 + microseconds(1));
}

TEST_F(NetDeviceTest, ResumeDisarmsThePendingKick) {
  dev_.pause_data(microseconds(100));
  EXPECT_TRUE(dev_.kick_armed());
  sim_.run_until(microseconds(10));
  dev_.resume_data();
  EXPECT_FALSE(dev_.kick_armed());
  // A fresh pause after the resume arms a fresh kick (new generation).
  dev_.pause_data(microseconds(50));
  EXPECT_TRUE(dev_.kick_armed());
  EXPECT_EQ(dev_.kicks_scheduled(), 2u);
  sim_.run();
  EXPECT_FALSE(dev_.kick_armed());
  // 10 us of the first pause (cut short) + the full 50 us second pause.
  EXPECT_EQ(dev_.paused_time(), microseconds(10) + microseconds(50));
}

TEST_F(NetDeviceTest, KickRelayCollapsesExtensionChains) {
  // Extend the pause while the kick is in flight, repeatedly: each expiry
  // relays once instead of scheduling per extension.
  dev_.pause_data(microseconds(10));
  for (int i = 1; i <= 4; ++i) {
    // Just before each deadline, push it out again: until 20/30/40/50 us.
    sim_.run_until(i * microseconds(10) - microseconds(1));
    dev_.pause_data(microseconds(11));
  }
  dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  EXPECT_EQ(dev_.pause_frames_received(), 5u);
  // 1 original + at most one relay per expired deadline (4 extensions).
  EXPECT_LE(dev_.kicks_scheduled(), 5u);
  ASSERT_EQ(sink_.arrivals.size(), 1u);
  EXPECT_EQ(sink_.arrivals[0].t, microseconds(50) + 800 + microseconds(1));
}

TEST_F(NetDeviceTest, LineRateThroughputSustained) {
  // 100 packets of 1000 B at 10 Gbps should take exactly 100 * 800 ns of
  // serialisation; the device must not exceed or undercut line rate.
  for (int i = 0; i < 100; ++i) dev_.enqueue(data_packet(1000), -1);
  sim_.run();
  ASSERT_EQ(sink_.arrivals.size(), 100u);
  EXPECT_EQ(sink_.arrivals.back().t, 100 * 800 + microseconds(1));
}

}  // namespace
}  // namespace paraleon::sim
