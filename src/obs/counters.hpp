// Counter registry: the one place every layer registers its named
// observables (monotonic counters and gauges), replacing the scattered
// one-off counter members the layers used to keep privately.
//
// Two instrument kinds:
//   - Counter: a registry-owned int64 slot behind a cheap handle. The
//     owning layer increments through the handle (one pointer indirection,
//     hot-path safe) and can still expose the value through its own
//     accessors; the registry sees every counter for free.
//   - Gauge: a callback evaluated at scrape time (zero cost between
//     scrapes). Used for values that already live somewhere (queue depth,
//     buffer occupancy, accumulated pause time).
//
// One Registry lives per Simulator, so two concurrent experiments never
// share instruments and a run's dump is a pure function of its seed.
// Callback gauges capture raw pointers into the registering object; read
// them only while that object is alive (in practice: while the Experiment
// that built the fabric exists).
//
// Lock discipline (compiler-checked via PARALEON_GUARDED_BY): the
// instrument tables are mutex-guarded so registration and scrapes are
// safe against each other once space-parallel sharding shares a
// simulator's registry between shard workers. Counter handles stay
// lock-free on purpose — they hold a raw slot pointer handed out under
// the lock, and increments follow the single-writer-per-instrument
// contract (one owning layer per counter), which keeps the hot path at
// one pointer indirection.
//
// Gauges are appended at registration and sorted by name at the first read
// after it (snapshot, value_of, has, size and to_json all read), so a
// fabric's hundreds of registrations cost a vector push each, not an
// ordered-map insert. A read therefore writes: it sorts under the lock,
// on mutable members the lock guards.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/time.hpp"

namespace paraleon::obs {

class Registry;

/// Handle to a registry-owned monotonic counter slot. Default-constructed
/// handles are inert (add/inc are no-ops, value() == 0), so members can be
/// declared before the registry is known.
class Counter {
 public:
  Counter() = default;
  void add(std::int64_t delta) {
    if (slot_ != nullptr) *slot_ += delta;
  }
  void inc() { add(1); }
  std::int64_t value() const { return slot_ == nullptr ? 0 : *slot_; }
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::int64_t* slot) : slot_(slot) {}
  std::int64_t* slot_ = nullptr;
};

class Registry {
 public:
  using ReadFn = std::function<double()>;

  /// Returns a handle to the named counter, creating the slot on first
  /// use. Registering the same name twice returns a handle to the same
  /// slot, so several sites may share one logical counter.
  Counter counter(const std::string& name) PARALEON_EXCLUDES(mu_);

  /// Registers (or replaces) a callback-backed gauge: when one name is
  /// registered twice, the later callback is the one read.
  void gauge(std::string name, ReadFn read) PARALEON_EXCLUDES(mu_);

  struct Sample {
    std::string name;
    bool is_counter = false;
    double value = 0.0;
  };
  /// Every instrument, sorted by name, read now. Deterministic: the order
  /// depends only on the names, never on registration order.
  std::vector<Sample> snapshot() const PARALEON_EXCLUDES(mu_);

  /// Current value of one instrument (0.0 if absent).
  double value_of(const std::string& name) const PARALEON_EXCLUDES(mu_);
  bool has(const std::string& name) const PARALEON_EXCLUDES(mu_);
  std::size_t size() const PARALEON_EXCLUDES(mu_);

  /// One JSON document: {"counters": {...}, "gauges": {...}}, keys sorted.
  /// Byte-identical for identical instrument values (the determinism test
  /// relies on this).
  common::Json to_json() const;

 private:
  using NamedGauge = std::pair<std::string, ReadFn>;

  /// Sorts gauges_ by name if a registration came since the last sort,
  /// keeping only the last registration of each name.
  void sort_gauges() const PARALEON_REQUIRES(mu_);
  /// The gauge registered under `name`, or nullptr. Sorts first.
  const NamedGauge* find_gauge(const std::string& name) const
      PARALEON_REQUIRES(mu_);

  mutable common::Mutex mu_;
  // name -> index in slots_
  std::map<std::string, std::size_t> counters_ PARALEON_GUARDED_BY(mu_);
  // Stable addresses: Counter handles point into this deque, so slots
  // must never move once handed out.
  std::deque<std::int64_t> slots_ PARALEON_GUARDED_BY(mu_);
  // Registration order until sort_gauges() runs; name order after it.
  mutable std::vector<NamedGauge> gauges_ PARALEON_GUARDED_BY(mu_);
  mutable bool gauges_sorted_ PARALEON_GUARDED_BY(mu_) = true;
};

}  // namespace paraleon::obs
