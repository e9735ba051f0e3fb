// A Task is a simulated thread of control (one per cluster node's compute
// processor) with its own virtual clock.
//
// Implementation: each Task runs its body on a fiber with its own mmap'd
// stack. Exactly one of {the partition's engine loop, one of its tasks}
// executes at any host instant: a task belongs to one event partition
// (set_partition), and windowed runs pin each partition to one worker thread
// for the whole run, so the simulation stays deterministic and data-race-free
// by construction. A baton pass is a register-only stack switch in user space
// (on x86-64: callee-saved registers, MXCSR and the x87 control word; a few
// hundred ns per round trip through the engine) — no signal-mask syscall and
// no kernel context switch, which matters because a full experiment run
// performs millions of switches. Other architectures fall back to
// swapcontext.
//
// Clock discipline: a running task's clock only moves forward through
// charge(), and charge() yields to the engine whenever the advance would
// cross a pending event's timestamp. Hence protocol message handlers always
// observe and mutate state in correct virtual-time order relative to the
// compute code, which is what makes access-control checks meaningful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/time.h"

namespace fgdsm::sim {

class Task {
 public:
  // Pooled callable for the task body: any callable whose captures fit the
  // inline buffer is stored without a heap allocation (unlike
  // std::function), which matters for runs constructing thousands of tasks.
  using TaskFn = BasicInlineFn<void(Task&)>;

  // `body` runs on the task's fiber once start() is scheduled. Throws
  // std::runtime_error naming the task if its stack cannot be mapped.
  Task(Engine& engine, std::string name, TaskFn body);
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task();

  // Schedule the task's first activation at virtual time t.
  void start(Time t = 0);

  // ---- Callable only from inside the task body ----

  Time now() const { return clock_; }

  // Advance this task's clock by dt of useful work, interleaving correctly
  // with pending engine events (and with handler occupancy of cpu()).
  void charge(Time dt);

  // Process every pending event with timestamp <= now(). Call before
  // inspecting any state that message handlers may mutate.
  void sync();

  // Block until wake() is called; clock becomes max(now, wake time,
  // cpu()->available()). Used by Semaphore/Barrier; most code should use
  // those instead.
  void block();

  // ---- Callable from engine/handler context ----

  // Wake a blocked task; it resumes no earlier than virtual time t.
  void wake(Time t);

  // ---- Crash / rollback support (engine context only) ----

  // Fail-stop halt: park the task permanently and orphan every resume event
  // already scheduled for it (the events carry the resume epoch and fire as
  // no-ops once it moves). The fiber is left intact so unwind() can still
  // run its destructors, and restore() can later bring the task back.
  void halt();

  // Discard the body's live frames: resume the fiber with a cancellation
  // that unwinds it through every destructor, leaving the task finished.
  // A rollback calls this before restore(), so whatever the abandoned
  // frames own is freed instead of being overwritten. No-op when the body
  // holds no frames (never entered, or finished).
  void unwind();

 private:
  enum class State : std::uint8_t { kNotStarted, kReady, kRunning, kBlocked,
                                    kFinished };

 public:
  // A resumable copy of the task's execution state: the fiber stack's live
  // bytes (everything at and above the saved stack pointer, which includes
  // the saved registers), that stack pointer, clock and blocking state. Only
  // valid for restore() on the SAME Task object: the bytes hold absolute
  // addresses into this task's stack.
  struct Snapshot {
    std::vector<char> stack;  // the top stack.size() bytes of the stack
    void* sp = nullptr;       // saved stack pointer; null = body not entered
    Time clock = 0;
    State state;
    Time pending_wake_time = 0;
    const char* wait_reason = nullptr;
    bool started = false;
    std::size_t bytes() const { return stack.size() + sizeof(sp); }
  };
  // Capture the current state. The task must not be running (it is blocked
  // at a quiescent point, or not yet activated).
  Snapshot snapshot() const;
  // Roll back to `s` and schedule the task to resume at `resume_at`. Bumps
  // the resume epoch first, so resume events from the abandoned timeline
  // become no-ops. The task must hold no live frames (never entered,
  // finished, or unwind()-ed).
  void restore(const Snapshot& s, Time resume_at);

  // ---- Configuration / inspection ----

  // The resource representing this task's processor. Handlers that share the
  // processor (single-cpu mode) acquire the same resource; the jump the task
  // observes on resume is recorded into *steal_counter (if set).
  void set_cpu(Resource* cpu) { cpu_ = cpu; }
  Resource* cpu() const { return cpu_; }
  void set_steal_counter(std::int64_t* c) { steal_counter_ = c; }

  // The event partition this task's resumes are scheduled into (the cluster
  // maps node i to partition i; default 0 covers single-partition engines).
  // Must be set before start().
  void set_partition(int p) { partition_ = p; }
  int partition() const { return partition_; }

  // Diagnostic context for deadlock/stall dumps: the cluster node this task
  // computes for (-1 = not a node task) and what the task is currently
  // waiting on (a static string set by Semaphore::wait; null = not waiting).
  void set_node_id(int id) { node_id_ = id; }
  int node_id() const { return node_id_; }
  void set_wait_reason(const char* r) { wait_reason_ = r; }
  const char* wait_reason() const { return wait_reason_; }

  bool finished() const { return state_ == State::kFinished; }
  bool blocked() const { return state_ == State::kBlocked; }
  const std::string& name() const { return name_; }
  Engine& engine() { return engine_; }

  // Engine internals.
  void resume_for_engine();  // run until the task yields/blocks/finishes

 private:
  struct Cancelled {};  // thrown into the body to unwind it

  // A fiber stack: an anonymous mapping of the usable bytes above one
  // PROT_NONE guard page, so an overflow faults instead of running into
  // the heap. Pages are committed by the kernel on first touch; a task
  // that never runs deep costs only the pages it touched.
  class Stack {
   public:
    explicit Stack(const std::string& owner);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;
    char* base() const { return base_; }  // lowest usable byte
    char* top() const { return top_; }    // one past the highest
   private:
    void* map_ = nullptr;
    std::size_t map_bytes_ = 0;
    char* base_ = nullptr;
    char* top_ = nullptr;
  };

  // First code run on the fiber's stack; never returns.
  [[noreturn]] static void fiber_main(Task* self);
  void run_body();
  // Give the baton to the engine with a resume event at now(); returns when
  // the engine hands it back.
  void yield_here();
  // Give the baton to the engine with no resume scheduled; wake() resumes.
  void yield_blocked();
  void switch_to_engine();
  void absorb_cpu_steal();
  // Highest clock value this task may currently advance to (pending events
  // and other tasks' resumes + lookahead).
  Time advance_limit() const;

  Engine& engine_;
  std::string name_;
  TaskFn body_;
  Time clock_ = 0;
  Resource* cpu_ = nullptr;
  std::int64_t* steal_counter_ = nullptr;
  int partition_ = 0;
  int node_id_ = -1;
  const char* wait_reason_ = nullptr;

  State state_ = State::kNotStarted;
  bool cancel_ = false;
  bool started_ = false;
  Time pending_wake_time_ = 0;
  // Resume-event epoch: every scheduled resume captures the epoch at
  // scheduling time and fires only if it still matches, so halt()/restore()
  // can invalidate in-flight resume events without touching the queues.
  std::uint64_t epoch_ = 0;
  std::exception_ptr exception_;

  Stack stack_;
  // Saved stack pointers of the two sides of the baton: the suspended fiber
  // (null until its first entry) and the engine context that resumed it.
  void* fiber_sp_ = nullptr;
  void* engine_sp_ = nullptr;

  // Sanitizer fiber bookkeeping; untouched in plain builds. ASan needs each
  // side's fake stack and the engine stack's bounds (which host thread
  // resumed the fiber decides them); TSan needs a context per fiber.
  struct Sanitizer {
    void* fiber_fake_stack = nullptr;
    void* engine_fake_stack = nullptr;
    const void* engine_stack = nullptr;
    std::size_t engine_stack_bytes = 0;
    void* tsan_fiber = nullptr;
    void* tsan_engine = nullptr;
  } san_;
};

}  // namespace fgdsm::sim
