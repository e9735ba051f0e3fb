// Pooled, allocation-free event storage for the discrete-event engine.
//
// The engine's original representation — std::priority_queue<Event> with a
// std::function<void()> per event — performed one heap allocation per event
// whose captures exceeded std::function's tiny inline buffer (every message
// delivery: sink + Message + arrival), plus a const_cast move out of
// priority_queue::top() (UB per [basic.life]). This header replaces both:
//
//   BasicInlineFn<Sig>
//               a move-only callable with a 128-byte inline buffer, sized so
//               a whole sim::Message rides inside the event record. A
//               callable that does not fit, or may throw on move, does not
//               convert: it is a compile error, never a heap box.
//               Parameterized on the call signature: the engine stores
//               InlineFn (= void()), and sim::Task stores its body as TaskFn
//               (= void(Task&)) so task construction doesn't pay
//               std::function's allocation either.
//   EventQueue  a slab of event records recycled through a free list, with a
//               binary min-heap of record indices keyed on (time, seq). The
//               key is a total order (seq is unique), so pop order is
//               bit-identical to the old priority_queue. Steady state pushes
//               and pops allocate nothing; slab growth is counted
//               (slab_grows) for the zero-allocation regression tests.
//
// Reentrancy: all state is per-instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

template <typename Sig>
class BasicInlineFn;

template <typename R, typename... Args>
class BasicInlineFn<R(Args...)> {
 public:
  // Large enough for a delivery closure: sink pointer + sim::Message +
  // arrival time. Raising it trades slab memory for inlining more captures.
  static constexpr std::size_t kCapacity = 128;

  BasicInlineFn() = default;

  template <typename F, typename D = std::remove_cvref_t<F>>
    requires(!std::is_same_v<D, BasicInlineFn> && sizeof(D) <= kCapacity &&
             alignof(D) <= alignof(std::max_align_t) &&
             std::is_nothrow_move_constructible_v<D>)
  BasicInlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = inline_ops<D>();
  }

  BasicInlineFn(BasicInlineFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
    o.ops_ = nullptr;
  }
  BasicInlineFn& operator=(BasicInlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  BasicInlineFn(const BasicInlineFn&) = delete;
  BasicInlineFn& operator=(const BasicInlineFn&) = delete;
  ~BasicInlineFn() { reset(); }

  R operator()(Args... args) {
    FGDSM_DCHECK(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* p, Args&&... args) -> R {
          return (*std::launder(reinterpret_cast<D*>(p)))(
              std::forward<Args>(args)...);
        },
        [](void* from, void* to) noexcept {
          D* src = std::launder(reinterpret_cast<D*>(from));
          ::new (to) D(std::move(*src));
          src->~D();
        },
        [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
    };
    return &ops;
  }
  alignas(std::max_align_t) std::byte buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

// The engine's event callable — the common case.
using InlineFn = BasicInlineFn<void()>;

// Min-heap of pooled event records ordered by (t, seq).
class EventQueue {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  Time top_time() const { return slab_[heap_[0]].t; }
  std::uint64_t top_seq() const { return slab_[heap_[0]].seq; }

  // Takes the callable by reference so it is relocated once, into its
  // record.
  void push(Time t, std::uint64_t seq, InlineFn&& fn) {
    std::uint32_t idx;
    if (free_ != kNone) {
      idx = free_;
      free_ = slab_[idx].next_free;
      slab_[idx].t = t;
      slab_[idx].seq = seq;
      slab_[idx].fn = std::move(fn);
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      if (slab_.size() == slab_.capacity()) ++slab_grows_;
      slab_.push_back(Rec{t, seq, std::move(fn), kNone});
    }
    heap_.push_back(idx);
    sift_up(heap_.size() - 1);
  }

  // Extract the earliest event's callable and recycle its record.
  InlineFn pop(Time* t_out) {
    FGDSM_DCHECK(!heap_.empty());
    const std::uint32_t idx = heap_[0];
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    Rec& r = slab_[idx];
    *t_out = r.t;
    InlineFn fn = std::move(r.fn);
    r.fn.reset();
    r.next_free = free_;
    free_ = idx;
    return fn;
  }

  // Times the record slab's backing store grew (an allocation); flat in
  // steady state once the high-water mark is reached.
  std::uint64_t slab_grows() const { return slab_grows_; }

 private:
  struct Rec {
    Time t = 0;
    std::uint64_t seq = 0;
    InlineFn fn;
    std::uint32_t next_free = kNone;
  };

  bool precedes(std::uint32_t a, std::uint32_t b) const {
    const Rec& ra = slab_[a];
    const Rec& rb = slab_[b];
    return ra.t != rb.t ? ra.t < rb.t : ra.seq < rb.seq;
  }

  void sift_up(std::size_t i) {
    const std::uint32_t v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!precedes(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  void sift_down(std::size_t i) {
    const std::uint32_t v = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && precedes(heap_[child + 1], heap_[child])) ++child;
      if (!precedes(heap_[child], v)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = v;
  }

  std::vector<Rec> slab_;
  std::vector<std::uint32_t> heap_;
  std::uint32_t free_ = kNone;
  std::uint64_t slab_grows_ = 0;
};

}  // namespace fgdsm::sim
