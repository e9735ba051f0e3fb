// Message payloads: pooled byte buffers, shared by handle.
//
// A payload is written once, by the producer that acquired it, and only
// read after that. Copying a Payload shares its buffer, so a broadcast, the
// reliable channel's retained copy, a retransmission and a fault-injected
// duplicate all point at one buffer. The host copies go; the simulated ones
// stay: every message still charges its own wire bytes
// (Message::size_bytes) and copy time. No checkpoint holds a handle: the
// barrier a checkpoint is taken at has consumed every message.
//
// Buffers come from a BufferPool and go back to it when the last handle
// drops. A cluster keeps one pool per event partition (PayloadPools), and
// each buffer records the pool that made it. Its reference count is a plain
// integer, kept race-free by one ownership rule: inside a window only the
// partition that acquired a buffer changes its count. Every copy already
// happens there (the broadcast, retain, retransmit and duplicate paths all
// run in the sender's partition); sharing from another partition inside a
// window is an assertion failure. Any other partition may read, move and
// drop a handle. Its drops are deferred, and the coordinator applies them
// at the window barrier (PayloadPools::settle) in partition order, so which
// buffer a producer reuses, and so the allocation count, is the same at any
// --sim-threads. Outside a drain (the barrier, checkpoint restore, setup,
// teardown) handles may be copied and dropped freely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

class BufferPool;
class PayloadPools;

class Payload {
 public:
  Payload() = default;
  // A zero-filled buffer of n bytes that belongs to no pool, for messages
  // made outside a cluster (unit tests, standalone probes). Its count is
  // not partition-checked: keep such a payload inside one partition.
  explicit Payload(std::size_t n);

  Payload(const Payload& o) : buf_(o.buf_) {
    if (buf_ != nullptr) share();
  }
  Payload(Payload&& o) noexcept : buf_(std::exchange(o.buf_, nullptr)) {}
  Payload& operator=(const Payload& o) {
    if (o.buf_ != buf_) {
      reset();
      buf_ = o.buf_;
      if (buf_ != nullptr) share();
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      buf_ = std::exchange(o.buf_, nullptr);
    }
    return *this;
  }
  ~Payload() { reset(); }

  // Drops this handle; the buffer is recycled when no handle is left.
  void reset() {
    if (buf_ != nullptr) drop(std::exchange(buf_, nullptr));
  }

  std::size_t size() const { return buf_ == nullptr ? 0 : buf_->size; }
  const std::byte* data() const {
    return buf_ == nullptr ? nullptr : buf_->bytes();
  }
  std::span<const std::byte> bytes() const { return {data(), size()}; }
  // The producer's write access: only while this is the buffer's one
  // handle, before it is shared.
  std::byte* mutable_data() {
    FGDSM_DCHECK(buf_ == nullptr || buf_->refs == 1);
    return buf_ == nullptr ? nullptr : buf_->bytes();
  }

 private:
  friend class BufferPool;
  friend class PayloadPools;
  // Header of one buffer; its bytes follow it in the same allocation.
  struct Buf {
    BufferPool* pool;  // the owner; null for a standalone buffer
    std::size_t size;
    std::size_t capacity;
    std::uint32_t refs;
    std::byte* bytes() { return reinterpret_cast<std::byte*>(this + 1); }
    const std::byte* bytes() const {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
  };
  static Buf* allocate(std::size_t capacity);
  static void deallocate(Buf* b);
  explicit Payload(Buf* b) : buf_(b) {}
  inline void share();
  static inline void drop(Buf* b);

  Buf* buf_ = nullptr;
};

// Recycles payload buffers so steady-state transfers allocate nothing.
// acquire() returns a buffer with UNSPECIFIED contents; every producer
// fully overwrites what it sends (block copies, chunk copies, need lists),
// so no stale data is scrubbed. A default-constructed pool stands alone:
// every drop returns its buffer at once.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  // A buffer of n bytes, or an empty handle for n == 0.
  Payload acquire(std::size_t n);

  // Buffers that had to be newly allocated (pool empty or too small). Flat
  // across iterations in steady state — the basis of the zero-allocation
  // regression tests.
  std::uint64_t fresh_allocs() const { return fresh_allocs_; }
  // Buffers back in the pool, ready for reuse.
  std::size_t idle() const { return free_.size(); }

 private:
  friend class Payload;
  friend class PayloadPools;
  // Bounds pool memory; enough for every in-flight block transfer of an
  // 8..32-node run with bulk transfer enabled.
  static constexpr std::size_t kMaxFree = 1024;

  inline void check_owner() const;
  inline void drop(Payload::Buf* b);
  void release(Payload::Buf* b);

  std::vector<Payload::Buf*> free_;
  // Drops this partition made of other partitions' buffers in the current
  // window, applied by PayloadPools::settle.
  std::vector<Payload::Buf*> deferred_;
  PayloadPools* set_ = nullptr;  // null: a standalone pool
  int index_ = 0;                // this pool's partition
  std::uint64_t fresh_allocs_ = 0;
  std::uint64_t live_ = 0;  // buffers allocated and not yet freed
};

// One BufferPool per event partition of an engine: the cluster's payload
// pools. Holds a reference to the engine only to ask which partition is
// draining on the calling thread, so it may be declared before the engine
// and outlive it.
class PayloadPools {
 public:
  PayloadPools(const Engine& engine, int nparts);
  PayloadPools(const PayloadPools&) = delete;
  PayloadPools& operator=(const PayloadPools&) = delete;
  ~PayloadPools();

  // The pool of the partition draining on this thread (pool 0 outside a
  // drain). Producers acquire from here.
  BufferPool& current() {
    const int here = context();
    return pools_[static_cast<std::size_t>(here < 0 ? 0 : here)];
  }
  BufferPool& operator[](int part) {
    return pools_[static_cast<std::size_t>(part)];
  }

  // The window-barrier step: applies every drop deferred during the window,
  // visiting only the partitions that deferred one, in partition order.
  // Coordinator only (no partition drains).
  void settle() {
    if (ndirty_.load(std::memory_order_relaxed) != 0) settle_deferred();
  }

 private:
  friend class BufferPool;
  int context() const { return engine_.draining_partition(); }
  // Records that pools_[part] deferred its first drop of the window. Each
  // partition does so at most once per window, so dirty_ never overflows;
  // the barrier orders these writes before settle() reads them.
  void mark(int part) {
    dirty_[ndirty_.fetch_add(1, std::memory_order_relaxed)] = part;
  }
  void settle_deferred();

  const Engine& engine_;
  std::vector<BufferPool> pools_;
  std::vector<int> dirty_;
  std::atomic<std::size_t> ndirty_{0};
};

// One pointer wide, so a Message (and the delivery closure carrying it)
// stays small enough for the engine's inline event buffer.
static_assert(sizeof(Payload) == sizeof(void*));

inline void BufferPool::check_owner() const {
  if (set_ == nullptr) return;
  const int here = set_->context();
  FGDSM_ASSERT_MSG(here < 0 || here == index_,
                   "payload of partition " << index_
                                           << " shared from partition " << here
                                           << " inside a window");
}

inline void BufferPool::drop(Payload::Buf* b) {
  if (set_ != nullptr) {
    const int here = set_->context();
    if (here >= 0 && here != index_) {
      BufferPool& mine = set_->pools_[static_cast<std::size_t>(here)];
      if (mine.deferred_.empty()) set_->mark(here);
      mine.deferred_.push_back(b);
      return;
    }
  }
  if (--b->refs == 0) release(b);
}

inline void Payload::share() {
  if (buf_->pool != nullptr) buf_->pool->check_owner();
  ++buf_->refs;
}

inline void Payload::drop(Buf* b) {
  if (b->pool != nullptr) {
    b->pool->drop(b);
  } else if (--b->refs == 0) {
    deallocate(b);
  }
}

}  // namespace fgdsm::sim
