#include "src/sim/payload.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace fgdsm::sim {

Payload::Buf* Payload::allocate(std::size_t capacity) {
  void* mem = ::operator new(sizeof(Buf) + capacity);
  return new (mem) Buf{nullptr, 0, capacity, 0};
}

void Payload::deallocate(Buf* b) { ::operator delete(b); }

Payload::Payload(std::size_t n) {
  if (n == 0) return;
  buf_ = allocate(n);
  buf_->size = n;
  buf_->refs = 1;
  std::memset(buf_->bytes(), 0, n);
}

BufferPool::~BufferPool() {
  for (Payload::Buf* b : free_) Payload::deallocate(b);
  live_ -= free_.size();
  // A handle that outlives its pool would drop into freed memory, and a
  // buffer no handle reaches any more has leaked.
  FGDSM_ASSERT_MSG(live_ == 0 && deferred_.empty(),
                   live_ << " payload buffers of partition " << index_
                         << " outlive their pool");
}

Payload BufferPool::acquire(std::size_t n) {
  if (n == 0) return Payload();
  Payload::Buf* b = nullptr;
  if (!free_.empty()) {
    b = free_.back();
    free_.pop_back();
    if (b->capacity < n) {
      Payload::deallocate(b);
      --live_;
      b = nullptr;
    }
  }
  if (b == nullptr) {
    b = Payload::allocate(n);
    b->pool = this;
    ++fresh_allocs_;
    ++live_;
  }
  b->size = n;
  b->refs = 1;
  return Payload(b);
}

void BufferPool::release(Payload::Buf* b) {
  if (free_.size() >= kMaxFree) {
    Payload::deallocate(b);
    --live_;
    return;
  }
  free_.push_back(b);
}

PayloadPools::PayloadPools(const Engine& engine, int nparts)
    : engine_(engine),
      pools_(static_cast<std::size_t>(nparts)),
      dirty_(static_cast<std::size_t>(nparts)) {
  for (int i = 0; i < nparts; ++i) {
    BufferPool& p = pools_[static_cast<std::size_t>(i)];
    p.set_ = this;
    p.index_ = i;
  }
}

PayloadPools::~PayloadPools() { settle(); }

void PayloadPools::settle_deferred() {
  const std::size_t n = ndirty_.load(std::memory_order_relaxed);
  const auto end = dirty_.begin() + static_cast<std::ptrdiff_t>(n);
  std::sort(dirty_.begin(), end);
  for (auto it = dirty_.begin(); it != end; ++it) {
    BufferPool& p = pools_[static_cast<std::size_t>(*it)];
    for (Payload::Buf* b : p.deferred_)
      if (--b->refs == 0) b->pool->release(b);
    p.deferred_.clear();
  }
  ndirty_.store(0, std::memory_order_relaxed);
}

}  // namespace fgdsm::sim
