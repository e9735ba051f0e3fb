// Virtual-time synchronization primitives built on Task::block()/wake().
//
// Semaphore is the workhorse: protocol code posts it from message-handler
// (engine) context with the handler's completion time; compute tasks wait on
// it. It directly implements the paper's ready_to_recv counting semaphore and
// the "wait for all pending transactions" drain at release points.
#pragma once

#include <cstdint>

#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

class Semaphore {
 public:
  // Diagnostic label recorded as the waiting task's wait reason while it is
  // parked here; deadlock/stall dumps print it ("node3 waiting on
  // ready_to_recv"). Must point at a string that outlives the semaphore.
  void set_name(const char* name) { name_ = name; }

  // Post n units at virtual time t (typically the posting handler's
  // completion time). Engine/handler context only.
  void post(Time t, std::int64_t n = 1) {
    FGDSM_DCHECK(n >= 0);
    count_ += n;
    if (waiter_ != nullptr && count_ >= need_) {
      Task* w = waiter_;
      waiter_ = nullptr;
      w->wake(t);
    }
  }

  // Block `task` until the count reaches n, then subtract n. Task context
  // only; a semaphore supports one waiter at a time (each simulated node has
  // its own).
  void wait(Task& task, std::int64_t n = 1) {
    task.sync();  // a due event may already satisfy us
    while (count_ < n) {
      FGDSM_ASSERT_MSG(waiter_ == nullptr,
                       "semaphore already has a waiter (" << waiter_->name()
                                                          << ")");
      waiter_ = &task;
      need_ = n;
      task.set_wait_reason(name_);
      task.block();
    }
    task.set_wait_reason(nullptr);
    count_ -= n;
  }

  std::int64_t count() const { return count_; }
  // The task parked here, if any (a halted waiter stays registered).
  const Task* waiter() const { return waiter_; }

  // Rollback support: force the semaphore to `count` with no waiter
  // registered. The abandoned timeline's waiter was unwound, and the
  // restarted task waits afresh if it waits at all.
  void restore_for_recovery(std::int64_t count) {
    count_ = count;
    waiter_ = nullptr;
    need_ = 0;
  }

 private:
  const char* name_ = "semaphore";
  std::int64_t count_ = 0;
  Task* waiter_ = nullptr;
  std::int64_t need_ = 0;
};

}  // namespace fgdsm::sim
