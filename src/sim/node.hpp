// Base type for anything attached to a link endpoint.
//
// The set of node kinds is closed: the fabric holds hosts and switches,
// and a NetDevice delivers to its peer (and reports dequeues to its owner)
// by a switch on kind() followed by a direct call — no virtual dispatch on
// the per-packet path. A TapNode is the one endpoint outside the modelled
// fabric: tests use it to observe what a link delivers.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/packet.hpp"

namespace paraleon::sim {

enum class NodeKind : std::uint8_t { kHost, kSwitch, kTap };

class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }
  bool is_switch() const { return kind_ == NodeKind::kSwitch; }

 protected:
  Node(NodeId id, NodeKind kind) : id_(id), kind_(kind) {}
  // Never deleted through a Node*: owners hold the concrete type.
  ~Node() = default;

 private:
  NodeId id_;
  NodeKind kind_;
};

/// An endpoint that hands each arriving packet (and, when it owns a
/// NetDevice, each packet leaving that device's queue) to a callback.
class TapNode : public Node {
 public:
  using PacketFn = std::function<void(const Packet& pkt, int port)>;

  explicit TapNode(NodeId id) : Node(id, NodeKind::kTap) {}

  /// A packet fully arrived on local port `port`.
  PacketFn on_receive;
  /// A packet finished serialising out of a NetDevice this node owns;
  /// `port` is the ingress port it was enqueued with (-1 = locally born).
  PacketFn on_dequeue;
};

}  // namespace paraleon::sim
