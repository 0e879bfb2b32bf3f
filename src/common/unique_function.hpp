// Move-only type-erased callable for the event engine's pooled nodes.
//
// std::function cost the hot path one heap allocation per event once a
// closure outgrew libstdc++'s 16-byte small-object buffer. UniqueFunction
// keeps a 96-byte inline buffer (kInlineBytes, asserted at the hot
// schedule sites), is move-only (no copyability tax — an event fires
// once), and stores two raw function pointers instead of a vtable. The
// NetDevice closures now capture `this` plus a 32-bit packet handle (16
// bytes); the buffer's size is what keeps an EventNode at two cache
// lines and every closure the simulator schedules off the heap.
//
// Layout is tuned for the pop path over a large pooled working set: the
// handler pointers come BEFORE the inline storage, so invoking a small
// closure touches a single cache line. Trivially-copyable closures (all
// the hot-path ones — they capture pointers and PODs) skip the relocate
// handler entirely: relocate_ stays null, moves are memcpy and reset()
// is two stores, so releasing a fired event makes no indirect call.
//
// Closures larger than kInlineBytes, over-aligned ones, or ones with a
// throwing move still work through a heap fallback; the PerfMonitor's
// closure_heap_allocs counter (threshold kClosureSboBytes ==
// kInlineBytes) is the regression gate that keeps the hot path off it.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace paraleon::common {

class UniqueFunction {
 public:
  /// Inline capacity: an EventNode totals exactly 128 bytes, and every
  /// closure the simulator schedules (the largest capture a few pointers
  /// and ids) stays inline.
  static constexpr std::size_t kInlineBytes = 96;

  /// True when a callable of decayed type D is stored inline (no heap).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  UniqueFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  explicit UniqueFunction(F&& f) {
    emplace(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept
      : invoke_(other.invoke_), relocate_(other.relocate_) {
    if (relocate_ != nullptr) {
      relocate_(storage_, other.storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      if (relocate_ != nullptr) {
        relocate_(storage_, other.storage_);
      } else if (invoke_ != nullptr) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  /// Constructs a callable in place, destroying any current one first.
  /// This is the pooled-node fill path: exactly one move of the concrete
  /// closure, straight into the node's inline storage.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    static_assert(std::is_invocable_r_v<void, D&>);
    reset();
    if constexpr (fits_inline<D>() && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // Trivial fast path: bytes ARE the closure. No relocate handler —
      // reset() and moves never make an indirect call.
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); };
    } else if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); };
      relocate_ = [](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        if (dst != nullptr) ::new (dst) D(std::move(*from));
        from->~D();
      };
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = [](void* s) {
        (**std::launder(reinterpret_cast<D**>(s)))();
      };
      relocate_ = [](void* dst, void* src) {
        D** from = std::launder(reinterpret_cast<D**>(src));
        if (dst != nullptr) {
          ::new (dst) D*(*from);  // ownership moves with the pointer
        } else {
          delete *from;
        }
      };
    }
  }

  /// Destroys the stored callable (no-op when empty or trivial).
  void reset() noexcept {
    if (relocate_ != nullptr) {
      relocate_(nullptr, storage_);
      relocate_ = nullptr;
    }
    invoke_ = nullptr;
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  using InvokeFn = void (*)(void*);
  /// relocate_(dst, src): move-construct the callable from src into dst
  /// and destroy src; with dst == nullptr, destroy src only. Null for
  /// trivially-copyable inline closures (memcpy moves, no-op destroy).
  using RelocateFn = void (*)(void* dst, void* src);

  InvokeFn invoke_ = nullptr;
  RelocateFn relocate_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace paraleon::common
