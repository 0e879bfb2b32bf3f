// Open-addressed hash table from a 64-bit key to a value: the per-packet
// lookup structure that replaces node-based std::unordered_map where
// nothing needs its iteration order.
//
// One flat power-of-two slot array, Fibonacci hashing and linear probing;
// the load factor stays at most 1/2, so a lookup is one or two adjacent
// slots. erase() shifts the rest of the probe run back instead of leaving
// tombstones; clear() keeps the capacity. Iteration (for_each) walks the
// slot layout, which depends on the insert/erase history: a caller that
// feeds scheduling or a digest from it must sort what it collects first.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace paraleon::common {

template <typename V>
class FlatTable {
 public:
  /// The value under `key`, value-initialised on first use.
  V& operator[](std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = slots_[probe(key)];
    if (!s.used) {
      s.used = true;
      s.key = key;
      ++size_;
    }
    return s.value;
  }

  /// The value under `key`, or nullptr.
  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[probe(key)];
    return s.used ? &s.value : nullptr;
  }
  const V* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[probe(key)];
    return s.used ? &s.value : nullptr;
  }

  /// Removes `key` if present.
  void erase(std::uint64_t key) {
    if (size_ == 0) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = probe(key);
    if (!slots_[hole].used) return;
    for (std::size_t j = (hole + 1) & mask; slots_[j].used;
         j = (j + 1) & mask) {
      // The entry in slot j may fill the hole only if the hole lies on its
      // probe path: cyclically between its home slot and j.
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::size_t size() const { return size_; }

  /// Removes every entry and keeps the capacity.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    bool used = false;
    V value{};
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The slot holding `key`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_.assign(cap, Slot{});
    shift_ = 64 - std::countr_zero(cap);
    for (Slot& s : old) {
      if (s.used) slots_[probe(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace paraleon::common
