// Pooled calendar-queue storage for the event engine.
//
// Three pieces, composed by the Simulator:
//
//   * EventNode / EventPool — arena-allocated, freelist-recycled event
//     nodes. A node is 128 bytes (a 96-byte-inline UniqueFunction, the
//     profiling tag, the freelist link), so steady-state scheduling does
//     zero heap traffic: nodes cycle pool -> queue -> pool.
//   * CalendarQueue — the hot backend: a wheel of 4096 buckets, 512 ns
//     wide (2.1 ms span, sized so serialization/propagation ticks AND the
//     1 ms monitor cadence — the two modes of the schedule-horizon
//     histogram — stay in-window), an occupancy bitmap for empty-bucket
//     skip, and a far min-heap for beyond-window events that is spilled
//     into the wheel when the window rotates. Every bucket is a FIFO
//     list threaded through ONE slab of entry slots shared by the whole
//     wheel, so retained queue memory tracks the peak number of live
//     events, not 4096 times the largest cohort a bucket ever held. A
//     bucket is ordered when its drain starts, by a stable radix sort on
//     the entry's offset in the bucket. Fire order is exactly (t, seq)
//     lexicographic — identical to the reference heap, so the engine
//     swap is digest-invisible.
//   * ReferenceHeapQueue — the old binary-heap ordering behind the same
//     interface; the in-process oracle the equivalence tests (and the
//     Simulator's kReferenceHeap backend) compare against.
//
// Contract shared by both queues: push(t, ...) requires t >= the time of
// the last popped entry (the Simulator's no-scheduling-into-the-past
// check), and seq values are distinct and increasing in push order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/time.hpp"
#include "common/unique_function.hpp"

namespace paraleon::sim {

/// One pooled event: the closure and its profiling tag. Time and sequence
/// live in the queue entries, not here — ordering never touches the node.
/// Field order puts the link, tag and the UniqueFunction handler pointers
/// on the node's FIRST cache line (the closure bytes start at offset 32),
/// so firing + releasing a small closure touches one line of a node that
/// may be a cold DRAM hit when the queue is deep.
struct EventNode {
  const char* tag = nullptr;
  EventNode* next_free = nullptr;
  common::UniqueFunction fn;
};

static_assert(sizeof(EventNode) == 128,
              "EventNode should stay exactly two cache lines");

/// Issues prefetches for both lines of a node about to be fired (the
/// closure is written at schedule time and read+reset at fire time, so
/// fetch for write).
inline void prefetch_node(const EventNode* n) {
  const char* p = reinterpret_cast<const char*>(n);
  __builtin_prefetch(p, 1, 3);
  __builtin_prefetch(p + 64, 1, 3);
}

/// Arena + freelist of EventNodes. Fresh nodes are bump-carved from
/// geometrically growing raw-memory blocks and constructed lazily at
/// acquire time (a block allocation touches no node memory — each line
/// is first written right before the closure fills it); released nodes
/// recycle LIFO through the freelist (hand the hottest node back first),
/// and nothing returns to the OS — after warm-up the event loop
/// allocates nothing.
class EventPool {
 public:
  ~EventPool() {
    // Destroy every node ever carved: freed ones hold no closure (their
    // destructor is a no-op), queued ones destroy theirs.
    for (const Block& b : blocks_) {
      EventNode* base = b.nodes();
      const std::size_t n =
          &b == &blocks_.back()
              ? static_cast<std::size_t>(bump_ - base)
              : b.count;
      for (std::size_t i = 0; i < n; ++i) base[i].~EventNode();
    }
  }

  EventNode* acquire() {
    if (free_head_ != nullptr) {
      EventNode* n = free_head_;
      free_head_ = n->next_free;
      --free_count_;
      return n;
    }
    if (bump_ == bump_end_) grow();
    ++carved_;
    return ::new (static_cast<void*>(bump_++)) EventNode;
  }

  /// Destroys the node's closure and recycles it.
  void release(EventNode* n) {
    n->fn.reset();
    n->tag = nullptr;
    n->next_free = free_head_;
    free_head_ = n;
    ++free_count_;
  }

  /// Total nodes ever carved from the arena (the high-water mark of
  /// outstanding events).
  std::size_t capacity() const { return carved_; }
  std::size_t free_count() const { return free_count_; }
  std::size_t blocks() const { return blocks_.size(); }

 private:
  static constexpr std::size_t kFirstBlockNodes = 256;
  static constexpr std::size_t kMaxBlockNodes = 16384;

  struct Block {
    std::unique_ptr<unsigned char[]> mem;
    std::size_t count;
    EventNode* nodes() const {
      return reinterpret_cast<EventNode*>(mem.get());
    }
  };

  void grow() {
    const std::size_t n =
        blocks_.empty() ? kFirstBlockNodes : std::min(kMaxBlockNodes, carved_);
    // Plain new[] of a char array: max_align_t-aligned (enough for
    // EventNode) and — unlike make_unique — NOT value-initialized, so a
    // block allocation is O(1), not a memset of the arena.
    blocks_.push_back(Block{
        std::unique_ptr<unsigned char[]>(
            new unsigned char[n * sizeof(EventNode)]),
        n});
    bump_ = blocks_.back().nodes();
    bump_end_ = bump_ + n;
  }

  std::vector<Block> blocks_;
  EventNode* free_head_ = nullptr;
  // Unconstructed tail of the newest block.
  EventNode* bump_ = nullptr;
  EventNode* bump_end_ = nullptr;
  std::size_t carved_ = 0;
  std::size_t free_count_ = 0;
};

/// (t, seq)-ordered queue entry; 24 bytes so bucket sorting moves keys,
/// never closures.
struct EventEntry {
  Time t;
  std::uint64_t seq;
  EventNode* node;
};

class CalendarQueue {
 public:
  CalendarQueue() : buckets_(kNumBuckets) {}

  void push(Time t, std::uint64_t seq, EventNode* node) {
    ++size_;
    // While the current bucket is mid-drain, same-bucket arrivals must
    // merge into its sorted run or they would fire after later times.
    if (!current_.empty() && t < cur_end_) {
      insert_into_current(EventEntry{t, seq, node});
      return;
    }
    if (t >= far_threshold_) {
      far_.push_back(EventEntry{t, seq, node});
      std::push_heap(far_.begin(), far_.end(), FarLater{});
      return;
    }
    append(static_cast<std::size_t>((t - base_) >> kWidthShift),
           EventEntry{t, seq, node});
  }

  /// Pops the earliest (t, seq) entry with t <= limit; nullptr when the
  /// queue is empty or every pending event is later than `limit`.
  EventNode* pop(Time limit, Time* fired_at) {
    for (;;) {
      if (!current_.empty()) {
        const EventEntry& e = current_.back();
        if (e.t > limit) return nullptr;
        *fired_at = e.t;
        EventNode* n = e.node;
        current_.pop_back();
        // Nodes fire in schedule-scattered order, so a deep queue makes
        // each one a DRAM miss; the sorted run tells us the future, so
        // fetch a few pops ahead.
        if (current_.size() > kPrefetchAhead) {
          prefetch_node(current_[current_.size() - 1 - kPrefetchAhead].node);
        }
        --size_;
        return n;
      }
      if (size_ == 0) return nullptr;
      const int idx = next_occupied(cur_);
      if (idx >= 0) {
        const Time bucket_start =
            base_ + (static_cast<Time>(idx) << kWidthShift);
        if (bucket_start > limit) return nullptr;
        cur_ = idx;
        drain_bucket(idx);
        continue;
      }
      // Window empty: everything pending sits in the far heap. Only
      // rotate when its head is reachable, so base_ never outruns the
      // caller's clock (pushes must stay >= base_).
      if (far_.front().t > limit) return nullptr;
      rotate();
    }
  }

  /// Timestamp of the earliest pending entry (kTimeNever when empty).
  /// Cold path — scans the head bucket.
  Time next_time() const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Window rotations performed (far-heap spill/refill cycles).
  std::uint64_t rotations() const { return rotations_; }
  /// Entry slots the bucket slab retains (in use or free): at most twice
  /// the peak number of entries that waited in the wheel at once, however
  /// many buckets those entries passed through.
  std::size_t slot_capacity() const { return slab_.capacity(); }

  static constexpr int kWidthShift = 9;    // 512 ns buckets
  static constexpr int kBucketBits = 12;   // 4096 of them: 2.1 ms span
  static constexpr int kNumBuckets = 1 << kBucketBits;
  /// Pop-path prefetch lookahead into the sorted current run.
  static constexpr std::size_t kPrefetchAhead = 6;

 private:
  // Min-heap comparator for the far vector (front() == earliest).
  struct FarLater {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  // A slab slot: the entry plus the index of the next slot in its
  // bucket's list (or in the free list).
  struct Slot {
    EventEntry e;
    std::uint32_t next;
  };
  static_assert(sizeof(Slot) == 32, "two slab slots per cache line");
  // A bucket's FIFO list, head to tail. Meaningful only while the
  // bucket's occupancy bit is set; an empty bucket has no list.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Links `e` at the tail of bucket `idx`, so equal-t entries keep their
  /// push (seq) order — the radix drain's precondition.
  void append(std::size_t idx, const EventEntry& e) {
    std::uint32_t s = free_;
    if (s != kNoSlot) {
      free_ = slab_[s].next;
    } else {
      s = carve_slot();
    }
    slab_[s].e = e;
    Bucket& b = buckets_[idx];
    std::uint64_t& word = occ_[idx >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
    if ((word & bit) != 0) {
      slab_[b.tail].next = s;
    } else {
      b.head = s;
      word |= bit;
    }
    b.tail = s;
  }

  std::uint32_t carve_slot();
  void insert_into_current(EventEntry e);
  void drain_bucket(int idx);
  void sort_current();
  void rotate();

  /// First occupied bucket index >= from, or -1.
  int next_occupied(int from) const {
    auto w = static_cast<std::size_t>(from) >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        return static_cast<int>((w << 6) +
                                static_cast<std::size_t>(
                                    std::countr_zero(word)));
      }
      if (++w >= kOccWords) return -1;
      word = occ_[w];
    }
  }

  static constexpr std::size_t kOccWords = kNumBuckets / 64;

  // One slab of entry slots backs every bucket. Drained slots recycle
  // LIFO through free_ (the hottest first), and a new slot is carved only
  // when none is free, so the slab's size is the peak number of entries
  // ever waiting in the wheel at once.
  std::vector<Slot> slab_;
  std::uint32_t free_ = kNoSlot;
  std::vector<Bucket> buckets_;
  std::uint64_t occ_[kOccWords] = {};
  // The bucket being drained, sorted descending by (t, seq) so pops come
  // off the back in ascending order.
  std::vector<EventEntry> current_;
  // Scratch run for the radix sort's first pass (capacity reused).
  std::vector<EventEntry> radix_tmp_;
  Time cur_begin_ = 0;
  Time cur_end_ = 0;
  // Beyond-window events, min-heaped on (t, seq).
  std::vector<EventEntry> far_;
  Time base_ = 0;
  Time far_threshold_ = static_cast<Time>(kNumBuckets) << kWidthShift;
  int cur_ = 0;
  std::size_t size_ = 0;
  std::uint64_t rotations_ = 0;
};

/// The pre-overhaul binary-heap ordering behind the calendar interface.
class ReferenceHeapQueue {
 public:
  void push(Time t, std::uint64_t seq, EventNode* node) {
    q_.push(EventEntry{t, seq, node});
  }

  EventNode* pop(Time limit, Time* fired_at) {
    if (q_.empty() || q_.top().t > limit) return nullptr;
    *fired_at = q_.top().t;
    EventNode* n = q_.top().node;
    q_.pop();
    return n;
  }

  Time next_time() const { return q_.empty() ? kTimeNever : q_.top().t; }
  std::size_t size() const { return q_.size(); }
  bool empty() const { return q_.empty(); }

 private:
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::priority_queue<EventEntry, std::vector<EventEntry>, Later> q_;
};

}  // namespace paraleon::sim
