// Event-engine storage tests: the calendar queue against the reference
// heap over randomized schedules (same-timestamp FIFO, schedule-during-
// pop, far-horizon spill/refill, head-of-queue time), the bucket slab's
// memory bound under a sweeping timer cohort, the pooled-node lifecycle,
// and the UniqueFunction type-erasure contract (inline SBO, trivial fast
// path, heap fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "common/time.hpp"
#include "common/unique_function.hpp"
#include "sim/event_queue.hpp"

namespace paraleon::sim {
namespace {

// ---------------------------------------------------------------------
// CalendarQueue vs ReferenceHeapQueue equivalence
// ---------------------------------------------------------------------

/// Drives both queues through an identical (t, seq, node) stream and
/// asserts every pop agrees, and that both report the same head time
/// after every push and pop. Nodes come from one pool; neither queue
/// mutates them, so pointer identity is the comparison key.
class QueuePair {
 public:
  void push(Time t) {
    EventNode* n = pool_.acquire();
    cal_.push(t, seq_, n);
    heap_.push(t, seq_, n);
    ++seq_;
    EXPECT_EQ(cal_.next_time(), heap_.next_time());
  }

  /// Pops the earliest event of both queues if it is due by `limit`;
  /// checks order agreement plus (t, seq) monotonicity.
  bool pop(Time limit) {
    Time ct = -1;
    Time ht = -1;
    EventNode* cn = cal_.pop(limit, &ct);
    EventNode* hn = heap_.pop(limit, &ht);
    EXPECT_EQ(cn, hn);
    EXPECT_EQ(cal_.next_time(), heap_.next_time());
    if (cn == nullptr || cn != hn) return false;
    EXPECT_EQ(ct, ht);
    EXPECT_GE(ct, last_fired_);
    last_fired_ = ct;
    pool_.release(cn);
    return true;
  }

  /// Pops both queues up to `limit`; returns how many events fired.
  std::size_t drain(Time limit) {
    std::size_t fired = 0;
    while (pop(limit)) ++fired;
    return fired;
  }

  Time last_fired() const { return last_fired_; }
  CalendarQueue& calendar() { return cal_; }
  std::size_t cal_size() const { return cal_.size(); }
  std::size_t heap_size() const { return heap_.size(); }

 private:
  EventPool pool_;
  CalendarQueue cal_;
  ReferenceHeapQueue heap_;
  std::uint64_t seq_ = 0;
  Time last_fired_ = 0;
};

TEST(EventQueueEquivalence, SameTimestampBurstsFireInPushOrder) {
  QueuePair q;
  // Three bursts at the same timestamp, interleaved with other times —
  // all inside one calendar bucket, forcing the sorted-run tiebreak.
  for (int burst = 0; burst < 3; ++burst) {
    const Time t = 100 + burst;  // within one 512 ns bucket
    for (int i = 0; i < 50; ++i) q.push(t);
  }
  EXPECT_EQ(q.drain(kTimeNever), 150u);
  EXPECT_EQ(q.cal_size(), 0u);
  EXPECT_EQ(q.heap_size(), 0u);
}

TEST(EventQueueEquivalence, RandomizedInterleavedPushPop) {
  std::mt19937_64 rng(12345);
  QueuePair q;
  std::size_t fired_total = 0;
  Time horizon = 0;
  for (int round = 0; round < 200; ++round) {
    // Push a batch at or after the last fired time: near-term, same-
    // timestamp duplicates, and occasional far-horizon outliers, the
    // simulator's bimodal mix.
    const int pushes = static_cast<int>(rng() % 64);
    for (int i = 0; i < pushes; ++i) {
      Time t = q.last_fired();
      switch (rng() % 4) {
        case 0: break;                                  // exactly "now"
        case 1: t += static_cast<Time>(rng() % 700); break;   // near
        case 2: t += static_cast<Time>(rng() % 40000); break; // mid
        default:                                              // far
          t += static_cast<Time>(rng() % 10000000);
          break;
      }
      q.push(t);
      horizon = std::max(horizon, t);
    }
    // Drain up to a random limit (sometimes before, sometimes past the
    // furthest pending event) so pops interleave with future pushes.
    const Time limit = q.last_fired() + static_cast<Time>(rng() % 3000000);
    fired_total += q.drain(limit);
  }
  fired_total += q.drain(kTimeNever);
  EXPECT_EQ(q.cal_size(), 0u);
  EXPECT_EQ(q.heap_size(), 0u);
  EXPECT_GT(fired_total, 1000u);
  // The far outliers exceeded the 2.1 ms wheel span, so the calendar
  // must have rotated its window at least once.
  EXPECT_GT(q.calendar().rotations(), 0u);
}

TEST(EventQueueEquivalence, FarHorizonSpillAndRefill) {
  QueuePair q;
  constexpr Time kSpan = Time{CalendarQueue::kNumBuckets}
                         << CalendarQueue::kWidthShift;
  // Events far beyond several window spans, pushed out of order.
  for (int i = 20; i >= 0; --i) q.push(static_cast<Time>(i) * kSpan);
  // And a cluster near each other far out.
  for (int i = 0; i < 8; ++i) q.push(10 * kSpan + i * 100);
  EXPECT_EQ(q.drain(kTimeNever), 29u);
  EXPECT_GE(q.calendar().rotations(), 2u);
}

TEST(EventQueueEquivalence, PopRespectsLimitExactly) {
  QueuePair q;
  q.push(1000);
  q.push(2000);
  EXPECT_EQ(q.drain(999), 0u);   // earlier than everything
  EXPECT_EQ(q.drain(1000), 1u);  // inclusive boundary
  EXPECT_EQ(q.drain(kTimeNever), 1u);
}

TEST(EventQueueEquivalence, RadixDrainOfAFullBucketMatchesTheHeap) {
  // One bucket drained through every path that feeds it: far-heap
  // entries spilled in (t, seq) order (pushed in descending t, so their
  // seqs run against their times), direct pushes landing after the spill
  // at the same timestamps, and inserts made while the bucket drains.
  // Together they cover all 512 offsets with runs of equal t.
  QueuePair q;
  constexpr Time kWidth = Time{1} << CalendarQueue::kWidthShift;
  constexpr Time kSpan = Time{CalendarQueue::kNumBuckets}
                         << CalendarQueue::kWidthShift;
  const Time bucket = 3 * kSpan + 5 * kWidth;
  for (Time off = kWidth - 1; off >= 0; --off) {
    q.push(bucket + off);
    if (off % 7 == 0) q.push(bucket + off);  // equal-t runs in the spill
  }
  // An earlier far event in the same future window: popping it rotates
  // the wheel, which spills the bucket out of the far heap.
  q.push(bucket - 100);
  EXPECT_EQ(q.drain(bucket - 1), 1u);
  EXPECT_EQ(q.calendar().rotations(), 1u);
  // Direct pushes into the spilled bucket, at every offset (equal to the
  // spilled times, with larger seqs) and in runs.
  for (Time off = 0; off < kWidth; off += 3) {
    q.push(bucket + off);
    q.push(bucket + off);
  }
  // Drain half the bucket, then insert into the run being drained: at
  // the last fired time and scattered over the rest of the bucket.
  EXPECT_GT(q.drain(bucket + kWidth / 2), 0u);
  const Time mid = q.last_fired();
  for (Time off = mid - bucket; off < kWidth; off += 5) q.push(bucket + off);
  q.push(mid);
  q.push(mid);
  EXPECT_GT(q.drain(kTimeNever), 512u / 2);
  EXPECT_EQ(q.cal_size(), 0u);
  EXPECT_EQ(q.heap_size(), 0u);
}

// ---------------------------------------------------------------------
// Bucket slab memory
// ---------------------------------------------------------------------

TEST(CalendarSlab, SweepingTimerCohortRetainsSlotsForItsLiveCountOnly) {
  // The shape of an alltoall round's RP timers: a cohort started
  // together with one shared period, so the whole cohort moves through
  // the wheel bucket by bucket, re-armed across several window spans.
  // Every bucket it passes holds the full cohort once; storage that kept
  // per-bucket capacity would retain dozens of cohorts' worth of slots.
  constexpr int kTimers = 1000;
  constexpr Time kPeriod = microseconds(55);
  constexpr Time kSpan = Time{CalendarQueue::kNumBuckets}
                         << CalendarQueue::kWidthShift;
  QueuePair q;
  for (int i = 0; i < kTimers; ++i) q.push(static_cast<Time>(i));
  std::size_t peak_live = q.cal_size();
  std::size_t fired = 0;
  while (q.last_fired() < 4 * kSpan && q.pop(kTimeNever)) {
    ++fired;
    q.push(q.last_fired() + kPeriod);
    peak_live = std::max(peak_live, q.cal_size());
  }
  EXPECT_EQ(peak_live, static_cast<std::size_t>(kTimers));
  EXPECT_GT(fired, 4u * kTimers * static_cast<std::size_t>(kSpan / kPeriod));
  EXPECT_GE(q.calendar().rotations(), 3u);
  EXPECT_GT(q.calendar().slot_capacity(), 0u);
  EXPECT_LE(q.calendar().slot_capacity(), 2 * peak_live);
  EXPECT_EQ(q.drain(kTimeNever), static_cast<std::size_t>(kTimers));
}

// ---------------------------------------------------------------------
// EventPool lifecycle
// ---------------------------------------------------------------------

TEST(EventPool, RecyclesNodesWithoutGrowingAcrossCycles) {
  EventPool pool;
  std::vector<EventNode*> held;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 1000; ++i) {
      EventNode* n = pool.acquire();
      int x = i;
      n->fn.emplace([x] { (void)x; });
      n->tag = "test.cycle";
      held.push_back(n);
    }
    for (EventNode* n : held) pool.release(n);
    held.clear();
    // Fully drained: every carved node is back on the freelist.
    EXPECT_EQ(pool.free_count(), pool.capacity());
  }
  // Steady-state cycles reuse the arena instead of growing it: exactly
  // the high-water mark of outstanding nodes was ever carved.
  EXPECT_EQ(pool.capacity(), 1000u);
  EXPECT_EQ(pool.blocks(), 3u);  // 256 + 256 + 512 geometric block ramp
  const std::size_t blocks_after_first = pool.blocks();
  for (int i = 0; i < 1000; ++i) held.push_back(pool.acquire());
  for (EventNode* n : held) pool.release(n);
  held.clear();
  EXPECT_EQ(pool.blocks(), blocks_after_first);
}

TEST(EventPool, LifoReuseHandsBackTheLastReleasedNode) {
  EventPool pool;
  EventNode* a = pool.acquire();
  EventNode* b = pool.acquire();
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool.acquire(), a);
}

TEST(EventPool, DestructorReleasesLiveClosures) {
  // A pool destroyed with acquired nodes still holding closures must run
  // their destructors (events pending at simulator teardown).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventPool pool;
    EventNode* n = pool.acquire();
    n->fn.emplace([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // closure keeps it alive
  }
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------
// UniqueFunction contract
// ---------------------------------------------------------------------

TEST(UniqueFunction, HotPathClosuresStayInline) {
  // The engine's zero-alloc contract: an 80-byte pointer-and-POD closure
  // fits the inline buffer.
  struct Fake {
    unsigned char bytes[80];
  };
  Fake payload{};
  auto hot = [payload]() { (void)payload; };
  static_assert(common::UniqueFunction::fits_inline<decltype(hot)>());
  static_assert(sizeof(hot) <= common::UniqueFunction::kInlineBytes);
}

TEST(UniqueFunction, InvokesAndResets) {
  int calls = 0;
  common::UniqueFunction f([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(calls, 2);
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, MoveTransfersTheCallable) {
  int calls = 0;
  common::UniqueFunction a([&calls] { ++calls; });
  common::UniqueFunction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  common::UniqueFunction c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(calls, 2);
}

TEST(UniqueFunction, NonTrivialInlineClosureDestroysExactlyOnce) {
  // A move-only capture exercises the relocate-handler path (no trivial
  // fast path) while still fitting inline.
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    common::UniqueFunction f;
    f.emplace([t = std::move(token)] { (void)*t; });
    static_assert(!std::is_trivially_copyable_v<std::shared_ptr<int>>);
    f();
    EXPECT_FALSE(watch.expired());
    common::UniqueFunction g(std::move(f));
    g();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(UniqueFunction, OversizedClosureFallsBackToHeapAndStillWorks) {
  struct Big {
    unsigned char pad[200];
  };
  static_assert(!common::UniqueFunction::fits_inline<Big>());
  Big big{};
  big.pad[0] = 42;
  int seen = -1;
  auto fat = [big, &seen] { seen = big.pad[0]; };
  static_assert(!common::UniqueFunction::fits_inline<decltype(fat)>());
  common::UniqueFunction f(std::move(fat));
  f();
  EXPECT_EQ(seen, 42);
  // Moving a heap-backed callable transfers ownership, not bytes.
  common::UniqueFunction g(std::move(f));
  seen = -1;
  g();
  EXPECT_EQ(seen, 42);
}

TEST(UniqueFunction, EmplaceReplacesTheCurrentCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  common::UniqueFunction f;
  f.emplace([t = std::move(token)] { (void)*t; });
  int calls = 0;
  f.emplace([&calls] { ++calls; });  // must destroy the first closure
  EXPECT_TRUE(watch.expired());
  f();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace paraleon::sim
