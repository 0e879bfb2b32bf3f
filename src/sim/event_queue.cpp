#include "sim/event_queue.hpp"

#include <utility>

namespace paraleon::sim {

std::uint32_t CalendarQueue::carve_slot() {
  // Out of line: the slab grows only until it reaches the live peak.
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void CalendarQueue::insert_into_current(EventEntry e) {
  // current_ is sorted descending by (t, seq); the new entry carries the
  // largest seq so far, so among equal timestamps it lands closest to the
  // front — popped last, preserving FIFO. A mid-drain arrival is usually
  // due soon (a serialization tick), i.e. near the back: scan from there,
  // and shift only the entries that fire before it.
  std::size_t i = current_.size();
  current_.push_back(e);
  while (i > 0 && current_[i - 1].t <= e.t) {
    current_[i] = current_[i - 1];
    --i;
  }
  current_[i] = e;
}

void CalendarQueue::drain_bucket(int idx) {
  // Copy the bucket's list into the (empty) current_ run in push order,
  // then hand the whole list to the free list in one splice. current_
  // keeps its capacity, so steady state reallocates nothing.
  const Bucket& b = buckets_[static_cast<std::size_t>(idx)];
  for (std::uint32_t s = b.head;; s = slab_[s].next) {
    current_.push_back(slab_[s].e);
    if (s == b.tail) break;
  }
  slab_[b.tail].next = free_;
  free_ = b.head;
  sort_current();
  // Warm the first pops of the fresh run; steady-state pops prefetch
  // their own lookahead.
  const std::size_t warm =
      std::min(current_.size(), kPrefetchAhead + 1);
  for (std::size_t i = 0; i < warm; ++i) {
    prefetch_node(current_[current_.size() - 1 - i].node);
  }
  occ_[static_cast<std::size_t>(idx) >> 6] &=
      ~(std::uint64_t{1} << (idx & 63));
  cur_begin_ = base_ + (static_cast<Time>(idx) << kWidthShift);
  cur_end_ = cur_begin_ + (Time{1} << kWidthShift);
}

void CalendarQueue::sort_current() {
  // A stable two-pass LSD radix sort on each entry's 9-bit offset inside
  // the bucket (t & 511: the wheel base is always bucket-aligned). Stable
  // in t is enough for (t, seq): within a bucket, entries of equal t sit
  // in seq order. Direct pushes carry ever-larger seqs, and a rotation
  // spills the far heap in (t, seq) order into a wheel that is empty then.
  // The second pass writes back to front, giving the descending run that
  // pops take from the back.
  constexpr int kLoBits = 5;
  constexpr std::uint32_t kLoMask = (1u << kLoBits) - 1;
  constexpr std::uint32_t kOffsetMask = (1u << kWidthShift) - 1;
  const std::size_t n = current_.size();
  if (n < 2) return;
  std::uint32_t lo[1u << kLoBits] = {};
  std::uint32_t hi[1u << (kWidthShift - kLoBits)] = {};
  for (const EventEntry& e : current_) {
    const auto off = static_cast<std::uint32_t>(e.t) & kOffsetMask;
    ++lo[off & kLoMask];
    ++hi[off >> kLoBits];
  }
  std::uint32_t sum = 0;
  for (std::uint32_t& c : lo) sum += std::exchange(c, sum);
  sum = 0;
  for (std::uint32_t& c : hi) sum += std::exchange(c, sum);
  radix_tmp_.resize(n);
  for (const EventEntry& e : current_) {
    radix_tmp_[lo[static_cast<std::uint32_t>(e.t) & kLoMask]++] = e;
  }
  for (const EventEntry& e : radix_tmp_) {
    const auto off = static_cast<std::uint32_t>(e.t) & kOffsetMask;
    current_[n - 1 - hi[off >> kLoBits]++] = e;
  }
}

void CalendarQueue::rotate() {
  ++rotations_;
  // Re-base the wheel at the far head's bucket and spill every far event
  // that now fits the window. The far vector is a min-heap, so this costs
  // O(k log n) for the k spilled events — no full rescan per rotation.
  constexpr Time kWidthMask = (Time{1} << kWidthShift) - 1;
  base_ = far_.front().t & ~kWidthMask;
  far_threshold_ = base_ + (static_cast<Time>(kNumBuckets) << kWidthShift);
  cur_ = 0;
  while (!far_.empty() && far_.front().t < far_threshold_) {
    const EventEntry e = far_.front();
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    far_.pop_back();
    append(static_cast<std::size_t>((e.t - base_) >> kWidthShift), e);
  }
}

Time CalendarQueue::next_time() const {
  if (!current_.empty()) return current_.back().t;
  const int idx = next_occupied(cur_);
  if (idx >= 0) {
    const Bucket& b = buckets_[static_cast<std::size_t>(idx)];
    Time best = kTimeNever;
    for (std::uint32_t s = b.head;; s = slab_[s].next) {
      best = std::min(best, slab_[s].e.t);
      if (s == b.tail) break;
    }
    return best;
  }
  return far_.empty() ? kTimeNever : far_.front().t;
}

}  // namespace paraleon::sim
