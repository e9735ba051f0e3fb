#include "src/sim/task.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/util/assert.h"

#if defined(__SANITIZE_ADDRESS__)
#define FGDSM_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define FGDSM_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FGDSM_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define FGDSM_TSAN_FIBERS 1
#endif
#endif
#if defined(FGDSM_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#endif
#if defined(FGDSM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
// The compiler's function-entry hook: pushes one entry on the current
// fiber's shadow call stack.
extern "C" void __tsan_func_entry(void* call_pc);
#endif
#if !defined(__x86_64__)
#include <ucontext.h>

#include <new>
#endif

namespace fgdsm::sim {

namespace {
constexpr std::size_t kStackBytes = 512 * 1024;

// ASan poisons redzones around stack locals and does not see the frames a
// fiber abandons, so stack bytes are unpoisoned before they are reused for a
// new entry frame or copied in either direction by snapshot()/restore().
void unpoison(const void* p, std::size_t n) {
#if defined(FGDSM_ASAN_FIBERS)
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace

#if defined(__x86_64__)

// fgdsm_fiber_switch(save, load): push the state a call must preserve under
// the SysV ABI — rbx, rbp, r12-r15, MXCSR and the x87 control word — store
// the stack pointer to *save, adopt `load` as the stack pointer and pop the
// same state from it. Every other register is dead across a call, so that
// is the whole context, and no system call is involved.
//
// A new fiber starts in fgdsm_fiber_entry through a hand-built first frame
// (build_entry_frame): r12 holds the Task*, r13 the function it calls.
extern "C" void fgdsm_fiber_switch(void** save_sp, void* load_sp);
extern "C" void fgdsm_fiber_entry();
asm(R"(
  .pushsection .text
  .globl fgdsm_fiber_switch
  .hidden fgdsm_fiber_switch
  .type fgdsm_fiber_switch, @function
  .p2align 4
fgdsm_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size fgdsm_fiber_switch, .-fgdsm_fiber_switch

  .globl fgdsm_fiber_entry
  .hidden fgdsm_fiber_entry
  .type fgdsm_fiber_entry, @function
  .p2align 4
fgdsm_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size fgdsm_fiber_entry, .-fgdsm_fiber_entry
  .popsection
)");

namespace {
// Everything a suspended fiber still needs lies at or above its saved stack
// pointer: the switch pushed its registers there, the callers' frames sit
// above them, and a caller of the switch is not a leaf, so it keeps nothing
// in the red zone below.
constexpr std::size_t kBelowSavedSp = 0;

void fiber_switch(void** save_sp, void* load_sp) {
  fgdsm_fiber_switch(save_sp, load_sp);
}

// The frame fgdsm_fiber_switch pops on a fiber's first entry, laid out from
// the saved stack pointer up: FP control words, r15, r14, r13 = fn,
// r12 = task, rbx, rbp = 0 (ends the frame-pointer chain), the return into
// fgdsm_fiber_entry, and 16 bytes of padding to the stack top, so the
// entry's call leaves fn a 16-byte aligned frame as the ABI requires.
void* build_entry_frame([[maybe_unused]] char* base, char* top, Task* task,
                        void (*fn)(Task*)) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fpcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpcw));
  auto* f = reinterpret_cast<std::uint64_t*>(top) - 10;
  f[0] = mxcsr | static_cast<std::uint64_t>(fpcw) << 32;
  f[1] = f[2] = 0;
  f[3] = reinterpret_cast<std::uint64_t>(fn);
  f[4] = reinterpret_cast<std::uint64_t>(task);
  f[5] = f[6] = 0;
  f[7] = reinterpret_cast<std::uint64_t>(&fgdsm_fiber_entry);
  f[8] = f[9] = 0;
  return f;
}
}  // namespace

#else  // portable fallback: glibc swapcontext

namespace {
// The suspended side's ucontext_t lives in its own fiber_switch frame, and
// the "saved stack pointer" is its address. swapcontext's real stack
// pointer is a little lower, inside that frame, so a snapshot keeps a
// margin below the ucontext as well.
constexpr std::size_t kBelowSavedSp = 256;

void fiber_switch(void** save_sp, void* load_sp) {
  ucontext_t here;
  *save_sp = &here;
  swapcontext(&here, static_cast<ucontext_t*>(load_sp));
}

// makecontext cannot portably pass pointers, so the entry arguments travel
// in a per-thread slot: the fiber is entered right after the frame is built,
// on the same thread.
thread_local Task* g_entry_task = nullptr;
thread_local void (*g_entry_fn)(Task*) = nullptr;

void fiber_entry() { g_entry_fn(g_entry_task); }

// The new fiber's ucontext_t sits at the top of its stack; the stack proper
// is everything below it.
void* build_entry_frame(char* base, char* top, Task* task,
                        void (*fn)(Task*)) {
  const auto at = (reinterpret_cast<std::uintptr_t>(top) -
                   sizeof(ucontext_t)) & ~std::uintptr_t{15};
  auto* uc = new (reinterpret_cast<void*>(at)) ucontext_t{};
  getcontext(uc);
  uc->uc_stack.ss_sp = base;
  uc->uc_stack.ss_size = static_cast<std::size_t>(
      reinterpret_cast<char*>(uc) - base);
  uc->uc_link = nullptr;
  makecontext(uc, &fiber_entry, 0);
  g_entry_task = task;
  g_entry_fn = fn;
  return uc;
}
}  // namespace

#endif

Task::Stack::Stack(const std::string& owner) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  map_bytes_ = page + kStackBytes;
  void* m = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (m == MAP_FAILED)
    throw std::runtime_error("task " + owner + ": mmap of its " +
                             std::to_string(map_bytes_) +
                             "-byte stack failed: " + std::strerror(errno));
  if (mprotect(m, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(m, map_bytes_);
    throw std::runtime_error("task " + owner +
                             ": mprotect of its stack guard page failed: " +
                             std::strerror(err));
  }
  map_ = m;
  base_ = static_cast<char*>(m) + page;
  top_ = base_ + kStackBytes;
}

Task::Stack::~Stack() { munmap(map_, map_bytes_); }

Task::Task(Engine& engine, std::string name, TaskFn body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(name_) {
#if defined(FGDSM_TSAN_FIBERS)
  san_.tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(san_.tsan_fiber, name_.c_str());
#endif
  engine_.register_task(this);
}

Task::~Task() {
  unwind();
  engine_.unregister_task(this);
#if defined(FGDSM_TSAN_FIBERS)
  __tsan_destroy_fiber(san_.tsan_fiber);
#endif
}

void Task::start(Time t) {
  FGDSM_ASSERT_MSG(!started_, "task " << name_ << " started twice");
  started_ = true;
  clock_ = t;
  state_ = State::kReady;
  engine_.schedule_task_resume(partition_, t, [this, e = epoch_] {
    if (e == epoch_) resume_for_engine();
  });
}

void Task::fiber_main(Task* self) {
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &self->san_.engine_stack,
                                  &self->san_.engine_stack_bytes);
#endif
  self->run_body();
  // Leave for good: ASan may free this fiber's fake stack (null save slot).
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(nullptr, self->san_.engine_stack,
                                 self->san_.engine_stack_bytes);
#endif
#if defined(FGDSM_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->san_.tsan_engine, 0);
#endif
  fiber_switch(&self->fiber_sp_, self->engine_sp_);
  __builtin_unreachable();  // a finished task is never resumed
}

void Task::run_body() {
  if (!cancel_) {
    try {
      body_(*this);
    } catch (const Cancelled&) {
      // Unwound by unwind(); nothing to record.
    } catch (...) {
      exception_ = std::current_exception();
    }
  }
  state_ = State::kFinished;
}

void Task::resume_for_engine() {
  if (state_ == State::kFinished) return;
  FGDSM_ASSERT_MSG(state_ != State::kNotStarted || started_,
                   "resume before start");
  if (state_ == State::kBlocked && pending_wake_time_ > clock_)
    clock_ = pending_wake_time_;
  if (fiber_sp_ == nullptr) {
    unpoison(stack_.base(), static_cast<std::size_t>(stack_.top() -
                                                     stack_.base()));
    fiber_sp_ = build_entry_frame(stack_.base(), stack_.top(), this,
                                  &Task::fiber_main);
  }
  state_ = State::kRunning;
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(
      &san_.engine_fake_stack, stack_.base(),
      static_cast<std::size_t>(stack_.top() - stack_.base()));
#endif
#if defined(FGDSM_TSAN_FIBERS)
  san_.tsan_engine = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(san_.tsan_fiber, 0);
#endif
  fiber_switch(&engine_sp_, fiber_sp_);
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(san_.engine_fake_stack, nullptr, nullptr);
#endif
  if (state_ == State::kFinished) {
    fiber_sp_ = nullptr;  // the body's frames are gone
    if (exception_) {
      std::exception_ptr e = exception_;
      exception_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Task::switch_to_engine() {
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&san_.fiber_fake_stack, san_.engine_stack,
                                 san_.engine_stack_bytes);
#endif
#if defined(FGDSM_TSAN_FIBERS)
  __tsan_switch_to_fiber(san_.tsan_engine, 0);
#endif
  fiber_switch(&fiber_sp_, engine_sp_);
  // Resumed by the engine, possibly from another host thread's stack.
#if defined(FGDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(san_.fiber_fake_stack, &san_.engine_stack,
                                  &san_.engine_stack_bytes);
#endif
  if (cancel_) throw Cancelled{};
  state_ = State::kRunning;
}

void Task::unwind() {
  if (fiber_sp_ == nullptr) return;  // no live frames
  FGDSM_ASSERT_MSG(state_ != State::kRunning,
                   "unwind() from inside the task body");
  // Resuming with cancel_ set makes the pending yield point throw
  // Cancelled, which run_body() absorbs once every frame is destroyed.
  cancel_ = true;
  resume_for_engine();
  FGDSM_ASSERT(state_ == State::kFinished && fiber_sp_ == nullptr);
}

void Task::absorb_cpu_steal() {
  if (cpu_ != nullptr && cpu_->available() > clock_) {
    if (steal_counter_ != nullptr)
      *steal_counter_ += cpu_->available() - clock_;
    clock_ = cpu_->available();
  }
}

void Task::yield_here() {
  state_ = State::kReady;
  engine_.schedule_task_resume(partition_, clock_, [this, e = epoch_] {
    if (e == epoch_) resume_for_engine();
  });
  switch_to_engine();
  absorb_cpu_steal();
}

void Task::yield_blocked() {
  state_ = State::kBlocked;
  switch_to_engine();
  absorb_cpu_steal();
}

Time Task::advance_limit() const {
  // We may never pass a pending ordinary event (its handler can mutate state
  // we observe), and may run ahead of another task's pending resume only by
  // strictly less than the engine lookahead (that task's future actions
  // cannot affect us sooner than resume + lookahead). The window boundary
  // additionally caps the clock: events from other partitions may land
  // exactly at W, and the queries above only see this partition's queues.
  const Time ev = engine_.next_event_time();
  const Time rs = engine_.next_resume_time();
  const Time rs_limit = rs >= kTimeInfinity - engine_.lookahead()
                            ? kTimeInfinity
                            : rs + engine_.lookahead() - 1;
  const Time local = ev < rs_limit ? ev : rs_limit;
  const Time wend = engine_.window_end();
  return local < wend ? local : wend;
}

void Task::charge(Time dt) {
  FGDSM_DCHECK(dt >= 0);
  Time remaining = dt;
  for (;;) {
    const Time limit = advance_limit();
    if (limit > clock_) {
      const Time gap = limit == kTimeInfinity ? remaining : limit - clock_;
      const Time slice = remaining < gap ? remaining : gap;
      clock_ += slice;
      remaining -= slice;
      if (cpu_ != nullptr) cpu_->set_available(clock_);
      if (remaining == 0) return;
    }
    // An event is due, or a laggard task must catch up: let the engine run.
    yield_here();
  }
}

void Task::sync() {
  // Process every ordinary event <= now, and let any task that could still
  // produce such an event (pending resume <= now - lookahead) run first. A
  // clock at/past the window boundary also yields: events from other
  // partitions merged at the barrier may still land at <= now, and they
  // become visible locally only once the window advances.
  while (engine_.next_event_time() <= clock_ ||
         engine_.next_resume_time() <= clock_ - engine_.lookahead() ||
         engine_.window_end() <= clock_)
    yield_here();
  if (cpu_ != nullptr) cpu_->set_available(clock_);
}

void Task::block() {
  // Draining events that may already satisfy the caller's wait condition is
  // the caller's job (Semaphore::wait does a sync() first). Here we just
  // park.
  pending_wake_time_ = clock_;
  yield_blocked();
}

void Task::wake(Time t) {
  // Called from engine/handler context. The task must be blocked or about
  // to block; schedule a resume no earlier than t.
  pending_wake_time_ = t > clock_ ? t : clock_;
  engine_.schedule_task_resume(partition_, pending_wake_time_,
                               [this, e = epoch_] {
                                 if (e == epoch_) resume_for_engine();
                               });
}

void Task::halt() {
  FGDSM_ASSERT_MSG(state_ != State::kRunning,
                   "halt() from inside the task body");
  ++epoch_;  // orphan scheduled resumes
  if (state_ != State::kFinished && state_ != State::kNotStarted) {
    state_ = State::kBlocked;
    wait_reason_ = "crashed (fail-stop)";
  }
}

Task::Snapshot Task::snapshot() const {
  FGDSM_ASSERT_MSG(state_ != State::kRunning,
                   "snapshot() of a running task");
  Snapshot s;
  s.clock = clock_;
  s.state = state_;
  s.pending_wake_time = pending_wake_time_;
  s.wait_reason = wait_reason_;
  s.started = started_;
  s.sp = fiber_sp_;
  if (fiber_sp_ != nullptr) {
    // Only the live region matters: the stack grows down from top(), so
    // everything below the saved stack pointer is dead.
    const char* lo = static_cast<const char*>(fiber_sp_) - kBelowSavedSp;
    if (lo < stack_.base()) lo = stack_.base();
    unpoison(lo, static_cast<std::size_t>(stack_.top() - lo));
    s.stack.assign(lo, static_cast<const char*>(stack_.top()));
  }
  return s;
}

void Task::restore(const Snapshot& s, Time resume_at) {
  FGDSM_ASSERT_MSG(fiber_sp_ == nullptr,
                   "restore() of task " << name_
                                        << " with live frames; unwind() it "
                                           "first");
  ++epoch_;  // resume events from the abandoned timeline become no-ops
  clock_ = s.clock;
  state_ = s.state;
  pending_wake_time_ = s.pending_wake_time;
  wait_reason_ = s.wait_reason;
  started_ = s.started;
  cancel_ = false;
  exception_ = nullptr;
  fiber_sp_ = s.sp;
  if (!s.stack.empty()) {
    unpoison(stack_.base(),
             static_cast<std::size_t>(stack_.top() - stack_.base()));
    std::memcpy(stack_.top() - s.stack.size(), s.stack.data(),
                s.stack.size());
  }
#if defined(FGDSM_TSAN_FIBERS)
  // TSan keeps a shadow call stack per fiber: an instrumented function
  // pushes an entry on entry and pops it on return. unwind() popped entries
  // only in frames that run a cleanup, so the count no longer matches, and
  // each restored frame pops one entry as it returns; past the start, TSan
  // faults. Start the fiber on a fresh context holding one placeholder per
  // 16 restored bytes: the stack pointer is 16-byte aligned at every call,
  // so no suspended frame is smaller, and the returns never run out.
  __tsan_destroy_fiber(san_.tsan_fiber);
  san_.tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(san_.tsan_fiber, name_.c_str());
  void* const caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(san_.tsan_fiber, 0);
  for (std::size_t i = 0; i < s.stack.size() / 16; ++i)
    __tsan_func_entry(__builtin_return_address(0));
  __tsan_switch_to_fiber(caller, 0);
#endif
  if (state_ == State::kBlocked) {
    wake(resume_at);
  } else {
    // Initial-state snapshot (kReady, body never entered): restart the body
    // from the top at the rollback time.
    clock_ = resume_at;
    pending_wake_time_ = resume_at;
    engine_.schedule_task_resume(partition_, resume_at, [this, e = epoch_] {
      if (e == epoch_) resume_for_engine();
    });
  }
}

}  // namespace fgdsm::sim
