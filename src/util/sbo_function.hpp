// Move-only callable with small-buffer optimization.
//
// std::function heap-allocates any closure larger than its tiny internal
// buffer (16 bytes on libstdc++), and the simulator's hot path — packet
// forwarding closures capturing `this` plus a ~96-byte Packet by value —
// blows through that on every schedule().  SboFunction keeps closures up to
// `Capacity` bytes inline in the event node and only falls back to the heap
// for oversized or over-aligned callables.  Move-only (the event queue never
// copies actions), empty-callable calls are a checked error.  emplace()
// builds a closure directly in an existing SboFunction, which lets the event
// slab construct each action in the slot it will later fire from.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace gangcomm::util {

template <typename Signature, std::size_t Capacity = 112>
class SboFunction;

template <typename R, typename... Args, std::size_t Capacity>
class SboFunction<R(Args...), Capacity> {
 public:
  SboFunction() = default;
  // NOLINT gclint: allow(hyg-explicit-ctor): implicit nullptr conversion
  // mirrors std::function so callers can pass/assign nullptr to clear.
  SboFunction(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SboFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  // NOLINT gclint: allow(hyg-explicit-ctor): implicit conversion from any
  // callable mirrors std::function; explicit would break lambda call sites.
  SboFunction(F&& f) { construct(std::forward<F>(f)); }

  SboFunction(SboFunction&& o) noexcept { moveFrom(o); }
  SboFunction& operator=(SboFunction&& o) noexcept {
    if (this != &o) {
      reset();
      moveFrom(o);
    }
    return *this;
  }
  SboFunction(const SboFunction&) = delete;
  SboFunction& operator=(const SboFunction&) = delete;
  ~SboFunction() { reset(); }

  SboFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  explicit operator bool() const { return ops_ != nullptr; }

  friend bool operator==(const SboFunction& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const SboFunction& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

  R operator()(Args... args) {
    GC_CHECK_MSG(ops_ != nullptr, "call through empty SboFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Replace the held callable with `f`, constructed directly in this
  /// object's storage: unlike assigning a temporary SboFunction, the closure
  /// is never relocated.  The previous callable (if any) is destroyed first.
  /// An SboFunction rvalue is moved in, leaving it empty.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, SboFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "SboFunction is move-only; emplace an rvalue");
      *this = std::move(f);
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>,
                    "emplaced callable does not match the signature");
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroy the held callable (if any) and return to the empty state.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-construct from `src` storage into `dst` storage, then destroy the
    // source; for heap-held callables this just transfers the pointer.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool fitsInline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static const Ops* inlineOps() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (*static_cast<D*>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* s) { static_cast<D*>(s)->~D(); },
    };
    return &ops;
  }

  template <typename D>
  static const Ops* heapOps() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (**static_cast<D**>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          *static_cast<D**>(dst) = *static_cast<D**>(src);
        },
        [](void* s) { delete *static_cast<D**>(s); },
    };
    return &ops;
  }

  // Precondition: empty.
  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inlineOps<D>();
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = heapOps<D>();
    }
  }

  void moveFrom(SboFunction& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[Capacity];
};

}  // namespace gangcomm::util
