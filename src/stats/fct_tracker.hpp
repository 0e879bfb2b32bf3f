// Flow-completion-time bookkeeping used by every evaluation experiment.
//
// Slowdown follows the paper's Fig. 7 convention: measured FCT divided by
// the ideal FCT of the same flow on an idle network (serialisation at the
// bottleneck line rate plus the base propagation RTT).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "common/time.hpp"

namespace paraleon::stats {

struct FlowRecord {
  std::uint64_t flow_id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::int64_t size_bytes = 0;
  /// The QP carrying the flow (its own id unless a workload shares QPs).
  std::uint64_t qp_key = 0;
  Time start = 0;
  Time finish = -1;  // -1 while in flight
};

class FctTracker {
 public:
  /// `ideal_fct` maps (size, src, dst) to the idle-network FCT used as the
  /// slowdown denominator.
  using IdealFn = std::function<Time(std::int64_t size, std::uint32_t src,
                                     std::uint32_t dst)>;

  explicit FctTracker(IdealFn ideal_fct) : ideal_(std::move(ideal_fct)) {}

  /// `qp_key` 0 means the flow has a QP of its own (qp_key = flow_id).
  void on_flow_start(std::uint64_t flow_id, std::uint32_t src,
                     std::uint32_t dst, std::int64_t size_bytes, Time start,
                     std::uint64_t qp_key = 0);
  /// Ignored unless the flow is in flight.
  void on_flow_finish(std::uint64_t flow_id, Time finish);

  std::size_t started() const { return records_.size(); }
  std::size_t finished() const { return finished_; }

  /// Every record, in start order.
  const std::vector<FlowRecord>& records() const { return records_; }

  /// Flows the id index covers: those in flight, plus the finished ones
  /// held since the last release_finished().
  std::size_t open_flows() const { return index_.size(); }
  /// The record of an indexed flow (see open_flows), or nullptr.
  const FlowRecord* find(std::uint64_t flow_id) const;

  /// From now on a finished flow stays indexed until the next
  /// release_finished(), for a probe that looks up the flows active in an
  /// interval after the interval ends.
  void hold_finished() { hold_finished_ = true; }
  /// Drops the finished flows held so far from the index.
  void release_finished();

  /// All completed flows, sorted by flow id.
  std::vector<FlowRecord> completed() const;

  /// FCTs in seconds of completed flows whose size falls in
  /// [min_size, max_size).
  std::vector<double> fct_seconds(std::int64_t min_size,
                                  std::int64_t max_size) const;

  /// Slowdowns of completed flows in the size band.
  std::vector<double> slowdowns(std::int64_t min_size,
                                std::int64_t max_size) const;

  /// Slowdown distribution summary for one size band (the paper reports
  /// FCT slowdown; the tail quantiles are where mis-tuning shows first).
  struct SlowdownStats {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  SlowdownStats slowdown_stats(std::int64_t min_size,
                               std::int64_t max_size) const;

  /// The standard reporting buckets: <64 KB, 64 KB–1 MB, 1–16 MB, >=16 MB.
  struct SizeBucket {
    const char* label;
    std::int64_t min_size;
    std::int64_t max_size;
  };
  static const std::vector<SizeBucket>& size_buckets();

  /// slowdown_stats per standard size bucket (same order as
  /// size_buckets(); empty buckets are included with count == 0).
  std::vector<std::pair<SizeBucket, SlowdownStats>> bucket_slowdowns() const;

  /// Records of flows still running, sorted by flow id (for truncated
  /// experiments).
  std::vector<FlowRecord> unfinished() const;

 private:
  /// Every record, sorted by flow id. All reporting paths read the ledger
  /// through here, so their output (including order-sensitive float
  /// accumulation like mean slowdown) is in flow-id order whatever order
  /// the flows started in.
  std::vector<FlowRecord> sorted_records() const;

  IdealFn ideal_;
  /// Append-only ledger: one record per started flow, in start order.
  std::vector<FlowRecord> records_;
  /// flow id -> position in records_, for indexed flows only.
  common::FlatTable<std::uint32_t> index_;
  bool hold_finished_ = false;
  std::vector<std::uint64_t> held_;  // finished, still indexed
  std::size_t finished_ = 0;
};

}  // namespace paraleon::stats
