// The packet model for the RoCEv2 simulator.
//
// One struct covers data segments, per-packet ACKs, CNPs and PFC
// pause/resume frames. A packet in flight lives in its Simulator's
// PacketPool and moves through egress queues and events as a 32-bit
// PacketHandle, so a hop copies 4 bytes, not the 64-byte body. Control
// traffic (ACK/CNP/PFC) rides the strict-priority class and is exempt from
// data-class PFC pause, modelling the priority separation RoCE deployments
// use for CNPs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"

namespace paraleon::sim {

using NodeId = std::uint32_t;

enum class PacketType : std::uint8_t {
  kData,
  kAck,        // receiver -> sender, echoes the data timestamp for RTT
  kCnp,        // DCQCN congestion notification packet
  kPfcPause,   // link-local: pause the data class on the receiving port
  kPfcResume,  // link-local: cancel an earlier pause
};

enum PacketPriority : std::uint8_t {
  kPriorityControl = 0,  // strict priority, never PFC-paused
  kPriorityData = 1,
};

inline constexpr std::uint32_t kAckBytes = 64;
inline constexpr std::uint32_t kCnpBytes = 64;
inline constexpr std::uint32_t kPfcFrameBytes = 64;

struct Packet {
  std::uint64_t flow_id = 0;
  /// Data-plane measurement key: the QP the flow rides on. Distinct flows
  /// of a round-based collective reuse the same QP (as NCCL does), so the
  /// sketch sees one long-lived stream rather than fresh "mice" per round.
  /// 0 is never used — hosts default it to flow_id for standalone flows.
  std::uint64_t qp_key = 0;
  NodeId src = 0;  // source host (unused for PFC frames)
  NodeId dst = 0;  // destination host (unused for PFC frames)
  PacketType type = PacketType::kData;
  std::uint8_t priority = kPriorityData;
  /// ECN Congestion Experienced, set by a switch CP when marking.
  bool ecn_ce = false;
  /// The reclaimed TOS bit of §III-B Keypoint 1: set by the first sketch on
  /// the path so a flow is inserted into exactly one sketch network-wide.
  bool sketch_marked = false;
  std::uint32_t size_bytes = 0;
  /// Byte offset of this segment within its flow (data), or cumulative
  /// bytes acknowledged (ACK).
  std::int64_t offset = 0;
  /// Injection timestamp at the sending RNIC; echoed back in the ACK.
  Time sent_time = 0;
  /// In an ACK: the echoed data-packet timestamp. In a PFC pause frame:
  /// the pause duration in nanoseconds.
  std::int64_t aux = 0;
  /// Remaining hop budget; lets the monitor derive hop counts Swift-style
  /// (starting TTL minus received TTL).
  std::uint8_t ttl = 64;

  bool is_control() const { return priority == kPriorityControl; }
};

/// A packet's slot in its Simulator's PacketPool.
enum class PacketHandle : std::uint32_t {};

/// Every in-flight packet of one simulation. Whoever holds a handle owns
/// the packet: a NetDevice while it is queued or on the wire, the
/// receiving node on arrival, which forwards the handle (a switch) or
/// frees it (a host, a drop). Slots live in fixed-size blocks carved on
/// first need — nothing is preallocated, and a block never moves, so a
/// Packet& stays valid across alloc(). Freed slots recycle LIFO through an
/// intrusive list threaded through flow_id, so the next packet reuses the
/// hottest slot.
class PacketPool {
 public:
  PacketHandle alloc(const Packet& p) {
    std::uint32_t i = free_head_;
    if (i != kNone) {
      free_head_ = static_cast<std::uint32_t>(slot(i).flow_id);
    } else {
      if ((carved_ & kBlockMask) == 0) {
        // lint:allow(hot-alloc) the pool's own block carve, once per
        // kBlockSize packets at the high-water mark, never per hop.
        blocks_.push_back(std::make_unique<Packet[]>(kBlockSize));
      }
      i = carved_++;
    }
    ++live_;
    slot(i) = p;
    return PacketHandle{i};
  }

  Packet& operator[](PacketHandle h) {
    return slot(static_cast<std::uint32_t>(h));
  }

  void free(PacketHandle h) {
    const auto i = static_cast<std::uint32_t>(h);
    slot(i).flow_id = free_head_;
    free_head_ = i;
    --live_;
  }

  /// Copies the packet out and frees its slot: a receiver's consume.
  Packet take(PacketHandle h) {
    const Packet p = (*this)[h];
    free(h);
    return p;
  }

  /// Packets allocated and not yet freed.
  std::size_t live() const { return live_; }
  /// Slots ever carved (the high-water mark of live packets).
  std::size_t capacity() const { return carved_; }

 private:
  static constexpr int kBlockShift = 10;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  static constexpr std::uint32_t kBlockMask = kBlockSize - 1;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  Packet& slot(std::uint32_t i) {
    return blocks_[i >> kBlockShift][i & kBlockMask];
  }

  std::vector<std::unique_ptr<Packet[]>> blocks_;
  std::uint32_t carved_ = 0;
  std::uint32_t free_head_ = kNone;
  std::size_t live_ = 0;
};

inline Packet make_ack(const Packet& data, Time now, std::int64_t acked) {
  Packet ack;
  ack.flow_id = data.flow_id;
  ack.src = data.dst;
  ack.dst = data.src;
  ack.type = PacketType::kAck;
  ack.priority = kPriorityControl;
  ack.size_bytes = kAckBytes;
  ack.offset = acked;
  ack.sent_time = now;
  ack.aux = data.sent_time;
  return ack;
}

inline Packet make_cnp(const Packet& data, Time now) {
  Packet cnp;
  cnp.flow_id = data.flow_id;
  cnp.src = data.dst;
  cnp.dst = data.src;
  cnp.type = PacketType::kCnp;
  cnp.priority = kPriorityControl;
  cnp.size_bytes = kCnpBytes;
  cnp.sent_time = now;
  return cnp;
}

inline Packet make_pfc(PacketType type, Time pause_duration) {
  Packet pfc;
  pfc.type = type;
  pfc.priority = kPriorityControl;
  pfc.size_bytes = kPfcFrameBytes;
  pfc.aux = pause_duration;
  return pfc;
}

}  // namespace paraleon::sim
