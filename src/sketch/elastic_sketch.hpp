// Elastic Sketch (Yang et al., SIGCOMM'18) specialised for per-QP byte
// counting in the switch data plane.
//
// Heavy part: w single-slot buckets keyed by flow id, holding vote+ (bytes
// of the resident flow) and vote- (bytes of colliding flows). When
// vote-/vote+ exceeds the ostracism ratio lambda, the resident flow is
// evicted to the light part and the newcomer takes the bucket with its flag
// set (meaning: part of this flow's bytes may live in the light part).
// Light part: a d=1 count array (a one-row count-min), pure overestimate.
//
// Storage is governed by two validity bitmaps, one bit per heavy bucket
// and one per light counter: a set bit says the entry holds a value, a
// clear one that it reads as empty (a bucket with no resident, a light
// counter of 0) whatever bytes the uninitialised array holds there. So
// building a sketch and the control plane's per-interval reset() write
// only the bitmaps (64 + 512 words at the default geometry), not the
// 384 KB of buckets and counters, and a drain costs what the interval
// inserted. memory_bytes() models the switch SRAM the data structure
// needs and leaves the bitmaps out: they are simulator bookkeeping
// (hardware clears its registers in place).
//
// PARALEON attaches one instance per ToR as the data-plane measurement
// point; `use_tos_marking` selects whether the instance participates in the
// network-wide single-insertion scheme of §III-B Keypoint 1 (PARALEON) or
// records every passing packet (the "naive Elastic Sketch" baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/sketch_hook.hpp"

namespace paraleon::sketch {

struct ElasticSketchConfig {
  std::size_t heavy_buckets = 4096;
  std::size_t light_counters = 32768;
  /// Ostracism threshold: evict when vote- / vote+ >= lambda.
  double lambda = 8.0;
  /// True: insert only unmarked packets and claim the TOS bit (PARALEON).
  /// False: record every packet, no dedup (naive baseline).
  bool use_tos_marking = true;
};

struct HeavyRecord {
  std::uint64_t flow_id = 0;
  std::int64_t bytes = 0;  // estimated bytes (vote+ plus light if flagged)
};

class ElasticSketch final : public sim::SketchHook {
 public:
  explicit ElasticSketch(const ElasticSketchConfig& cfg);

  /// Data-plane insertion path (SketchHook). Returns whether the TOS bit
  /// should be set on the packet.
  bool on_data_packet(const sim::Packet& pkt) override;

  /// Direct insertion for tests and microbenchmarks.
  void insert(std::uint64_t flow_id, std::int64_t bytes);

  /// Estimated bytes for a flow (heavy-part exactish, light-part
  /// overestimate, 0 if never seen and no collision).
  std::int64_t query(std::uint64_t flow_id) const;

  /// All resident heavy-part flows with their size estimates — what the
  /// switch control-plane agent reads every monitor interval.
  std::vector<HeavyRecord> heavy_flows() const;

  /// Control-plane "read and reset registers".
  void reset();

  /// Invoked at the end of every reset(), so an exact-accounting shadow
  /// (the invariant checker's drift reference) clears in lockstep with the
  /// control plane's read-and-reset cycle.
  void set_reset_hook(std::function<void()> hook) {
    reset_hook_ = std::move(hook);
  }

  /// SRAM footprint of the data structure.
  std::size_t memory_bytes() const;

  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Collision packets that voted against a resident flow (whether or not
  /// the vote triggered an eviction) — the ostracism pressure gauge.
  std::uint64_t ostracism_votes() const { return ostracism_votes_; }
  const ElasticSketchConfig& config() const { return cfg_; }

 private:
  // Trivial on purpose: the arrays are allocated uninitialised, and only
  // an entry whose validity bit is set is ever read.
  struct Bucket {
    std::uint64_t key;
    std::int64_t vote_pos;
    std::int64_t vote_neg;
    bool flag;  // part of the flow's bytes may be in light part
  };

  std::size_t heavy_index(std::uint64_t key) const;
  std::size_t light_index(std::uint64_t key) const;
  void light_add(std::uint64_t key, std::int64_t bytes);
  std::int64_t light_query(std::uint64_t key) const;

  ElasticSketchConfig cfg_;
  std::unique_ptr<Bucket[]> heavy_;
  std::unique_ptr<std::int64_t[]> light_;
  // Validity bitmaps: bit i of word i / 64 is set iff entry i holds a value.
  std::vector<std::uint64_t> heavy_occ_;
  std::vector<std::uint64_t> light_occ_;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t ostracism_votes_ = 0;
  std::function<void()> reset_hook_;
};

}  // namespace paraleon::sketch
