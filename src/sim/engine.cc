#include "src/sim/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "src/sim/host_budget.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

// A stall detected inside a partition's drain (retry-budget exhaustion).
// Composing the full report needs cross-partition state (blocked tasks,
// channel diagnostics), so the reason unwinds the partition here and the
// coordinator composes the StallError single-threaded at the barrier.
struct PendingStall {
  std::string reason;
};

std::string watchdog_reason(Time stalled_for, Time threshold) {
  std::ostringstream os;
  os << "watchdog: no compute-task progress for " << stalled_for
     << " virtual ns (threshold " << threshold << ")";
  return os.str();
}

// Wait for a handshake word: spin briefly (windows are ~microseconds of
// simulated work), then yield so an oversubscribed host still makes
// progress.
template <typename Ready>
void spin_until(Ready ready) {
  int spins = 0;
  while (!ready()) {
    if (++spins > 4096) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace

void exit_stall(const StallError& e) {
  std::fprintf(stderr, "fgdsm: simulation stalled\n%s\n", e.what());
  std::exit(kStallExitCode);
}

void exit_crash(const CrashError& e) {
  std::fprintf(stderr, "fgdsm: unrecoverable node crash\n%s\n", e.what());
  std::exit(kCrashExitCode);
}

Engine::~Engine() {
  FGDSM_ASSERT_MSG(tasks_.empty(),
                   "engine destroyed with " << tasks_.size()
                                            << " live tasks");
}

Time Engine::Partition::front_time() const {
  Time t = kTimeInfinity;
  if (!events.empty()) t = events.top_time();
  if (!resumes.empty() && resumes.top_time() < t) t = resumes.top_time();
  return t;
}

void Engine::set_partitions(int n) {
  FGDSM_ASSERT_MSG(n >= 1, "partition count must be >= 1");
  FGDSM_ASSERT_MSG(!running_, "set_partitions during run()");
  FGDSM_ASSERT_MSG(tasks_.empty(), "set_partitions after registering tasks");
  for (const Partition& p : parts_)
    FGDSM_ASSERT_MSG(p.events.empty() && p.resumes.empty(),
                     "set_partitions after events were scheduled");
  // Construct in place (Partition is not movable once queues hold state).
  std::vector<Partition>(static_cast<std::size_t>(n)).swap(parts_);
  for (int i = 0; i < n; ++i) parts_[static_cast<std::size_t>(i)].index = i;
}

void Engine::set_lookahead(Time la) {
  FGDSM_ASSERT_MSG(la >= 2, "lookahead must be >= 2 to guarantee progress");
  lookahead_ = la;
}

void Engine::set_window_lookahead(Time w) {
  // Any positive value is sound (smaller windows are merely slower): each
  // window processes at least the event at the global safe time.
  FGDSM_ASSERT_MSG(w >= 1, "window lookahead must be positive");
  window_lookahead_ = w;
}

void Engine::set_seq_base(std::uint64_t base) {
  for (Partition& p : parts_) {
    FGDSM_ASSERT_MSG(p.events.empty() && p.resumes.empty(),
                     "set_seq_base after events were scheduled");
    p.next_seq = base;
  }
}

bool Engine::front_precedes(const EventQueue& a, const EventQueue& b) {
  if (a.empty()) return false;
  if (b.empty()) return true;
  return a.top_time() != b.top_time() ? a.top_time() < b.top_time()
                                      : a.top_seq() < b.top_seq();
}

// Drain one partition's events strictly below the window boundary. Failures
// are captured on the partition (not thrown across the barrier) so every
// partition still completes its window — matching serial execution order —
// and the coordinator rethrows deterministically.
void Engine::drain_partition(Partition& p, Time wend) {
  // A lone partition's one window spans the whole run, so its watchdog
  // checks every handler event against the partition's own last progress.
  const bool watch_events = watchdog_ns_ > 0 && parts_.size() == 1;
  const Engine* prev_e = tls_engine();
  Partition* prev_p = tls_partition();
  tls_engine() = this;
  tls_partition() = &p;
  try {
    for (;;) {
      const bool has_e = !p.events.empty() && p.events.top_time() < wend;
      const bool has_r = !p.resumes.empty() && p.resumes.top_time() < wend;
      if (!has_e && !has_r) break;
      const bool is_resume =
          has_e && has_r ? !front_precedes(p.events, p.resumes) : has_r;
      EventQueue& q = is_resume ? p.resumes : p.events;
      Time t;
      InlineFn fn = q.pop(&t);
      p.now = t;
      if (is_resume) {
        p.last_progress = t;
      } else if (watch_events && t - p.last_progress > watchdog_ns_ &&
                 any_task_unfinished()) {
        // Handler/timer events keep firing (e.g. retransmissions cycling on
        // a dead link) but no compute task has run for a full stall window:
        // the simulation is spinning, not progressing.
        throw PendingStall{watchdog_reason(t - p.last_progress, watchdog_ns_)};
      }
      ++p.events_processed;
      fn();
    }
  } catch (const PendingStall& ps) {
    p.stalled = true;
    p.stall_reason = ps.reason;
  } catch (...) {
    p.error = std::current_exception();
  }
  tls_engine() = prev_e;
  tls_partition() = prev_p;
}

// Size the worker crew for a run: partition i goes to worker i % nworkers,
// and each worker lists the tasks of its partitions. Outboxes keep their
// capacity from run to run while the worker count stays, and with several
// partitions start with room for a typical window's events, so they do not
// grow from empty through every power of two.
void Engine::set_up_workers(int nworkers) {
  if (static_cast<int>(workers_.size()) != nworkers) {
    constexpr std::size_t kInitialEvents = 32;
    const bool cross = parts_.size() > 1;
    std::vector<Worker>(static_cast<std::size_t>(nworkers)).swap(workers_);
    for (int w = 0; w < nworkers; ++w) {
      Worker& wk = workers_[static_cast<std::size_t>(w)];
      wk.index = w;
      for (std::vector<Outbox>& out : wk.out) {
        out = std::vector<Outbox>(static_cast<std::size_t>(nworkers));
        if (cross)
          for (Outbox& o : out) o.events.reserve(kInitialEvents);
      }
      if (cross) wk.keys.reserve(kInitialEvents * nworkers);
    }
  }
  nworkers_ = nworkers;
  for (Worker& wk : workers_) {
    wk.done.store(0, std::memory_order_relaxed);
    for (std::vector<Outbox>& out : wk.out)
      for (Outbox& o : out) o.events.clear();
    wk.tasks.clear();
    wk.task_cursor = 0;
    wk.error = nullptr;
  }
  for (Partition& p : parts_)
    p.worker = &workers_[static_cast<std::size_t>(p.index % nworkers)];
  for (const Task* t : tasks_)
    workers_[static_cast<std::size_t>(t->partition() % nworkers)]
        .tasks.push_back(t);
}

// Append the cross events sent in the window of parity `parity` to worker
// w's partitions, in the fixed order (dst, time, src seq, src partition).
// The key is unique ((src partition, src seq) never repeats) and
// independent of the host thread count, and destination seqs are assigned
// in merge order, so the merged queues are bit-identical at any
// --sim-threads. The sort moves small keys, not events: each callable moves
// once, into its queue.
void Engine::merge_into(Worker& w, int parity) {
  std::vector<MergeKey>& keys = w.keys;
  keys.clear();
  for (Worker& src : workers_)
    for (CrossEvent& ce : src.out[parity][static_cast<std::size_t>(w.index)]
                              .events)
      keys.push_back(MergeKey{ce.t, ce.src_seq, ce.src_part, ce.dst_part, &ce});
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), [](const MergeKey& a, const MergeKey& b) {
    if (a.dst_part != b.dst_part) return a.dst_part < b.dst_part;
    if (a.t != b.t) return a.t < b.t;
    if (a.src_seq != b.src_seq) return a.src_seq < b.src_seq;
    return a.src_part < b.src_part;
  });
  for (const MergeKey& k : keys) {
    Partition& d = parts_[static_cast<std::size_t>(k.dst_part)];
    (k.ev->is_resume ? d.resumes : d.events)
        .push(k.t, d.next_seq++, std::move(k.ev->fn));
  }
  for (Worker& src : workers_)
    src.out[parity][static_cast<std::size_t>(w.index)].events.clear();
}

// The coordinator's merge of everything sent in window `window`, for the
// slow path: per destination it is exactly the merge the workers would
// have run at the start of the next window.
void Engine::merge_pending(std::uint64_t window) {
  for (Worker& w : workers_) merge_into(w, static_cast<int>(window & 1));
}

// One worker's share of window `window`: merge the previous window's cross
// events addressed to its partitions, drain those with an event below W,
// and summarize. Never throws: a failure is recorded for the coordinator.
void Engine::run_window(Worker& w, std::uint64_t window) {
  Summary s;
  try {
    merge_into(w, static_cast<int>((window - 1) & 1));
    w.cur_out = w.out[window & 1].data();
    w.cross_min = kTimeInfinity;
    const Time wend = window_end_;
    const int nparts = static_cast<int>(parts_.size());
    for (int i = w.index; i < nparts; i += nworkers_) {
      Partition& p = parts_[static_cast<std::size_t>(i)];
      Time f = p.front_time();
      if (f < wend) {
        drain_partition(p, wend);
        f = p.front_time();
      }
      if (f < s.front) s.front = f;
      if (p.last_progress > s.progress) s.progress = p.last_progress;
      if (p.error || p.stalled) s.failed = true;
    }
    s.cross_min = w.cross_min;
    // Tasks finish only inside their own partition's drain, and un-finish
    // only in the coordinator's recovery (which rewinds the cursor), so
    // every task before the cursor is known finished.
    while (w.task_cursor < w.tasks.size() &&
           w.tasks[w.task_cursor]->finished())
      ++w.task_cursor;
    s.unfinished = w.task_cursor < w.tasks.size();
  } catch (...) {
    w.error = std::current_exception();
    s.failed = true;
  }
  w.summary = s;
}

// The coordinator's own view, for the start of a run and after the slow
// path changed the queues or the tasks: every partition and task, with
// nothing pending in the outboxes.
Engine::Summary Engine::scan_partitions() {
  Summary g;
  for (const Partition& p : parts_) {
    const Time f = p.front_time();
    if (f < g.front) g.front = f;
    if (p.last_progress > g.progress) g.progress = p.last_progress;
  }
  g.unfinished = any_task_unfinished_raw();
  for (Worker& w : workers_) w.task_cursor = 0;
  return g;
}

Engine::Summary Engine::reduce_summaries() const {
  Summary g;
  for (const Worker& w : workers_) {
    const Summary& s = w.summary;
    if (s.front < g.front) g.front = s.front;
    if (s.cross_min < g.cross_min) g.cross_min = s.cross_min;
    if (s.progress > g.progress) g.progress = s.progress;
    g.unfinished = g.unfinished || s.unfinished;
    g.failed = g.failed || s.failed;
  }
  return g;
}

// Rethrow the first failure of the completed window, by partition id — a
// deterministic choice at any thread count.
void Engine::throw_partition_error() {
  for (Partition& p : parts_) {
    if (p.error) {
      std::exception_ptr e = p.error;
      p.error = nullptr;
      std::rethrow_exception(e);
    }
    if (p.stalled) {
      p.stalled = false;
      const std::string reason = std::move(p.stall_reason);
      p.stall_reason.clear();
      compose_and_throw_stall(reason);
    }
  }
}

// Conservative synchronous-window PDES (see the file comment in engine.h).
void Engine::run() {
  FGDSM_ASSERT_MSG(!running_, "Engine::run is not reentrant");
  // Scope guard so every exit — normal return, StallError from the watchdog,
  // or an exception escaping an event callback — releases the flag and the
  // engine stays usable for a subsequent run().
  struct RunningGuard {
    bool& flag;
    explicit RunningGuard(bool& f) : flag(f) { flag = true; }
    ~RunningGuard() { flag = false; }
  } guard(running_);
  const int nparts = static_cast<int>(parts_.size());
  // A lone partition has no cross-partition latency to respect: its window
  // is unbounded (a finite one would only make tasks yield at boundaries).
  const Time wla = nparts == 1 ? kTimeInfinity : window_lookahead();
  int want = sim_threads_ < nparts ? sim_threads_ : nparts;
  if (want < 1) want = 1;
  const int granted =
      want > 1 ? HostBudget::instance().acquire(want - 1) : 0;
  const int nworkers = 1 + granted;

  for (Partition& p : parts_) {
    p.last_progress = p.now;
    p.error = nullptr;
    p.stalled = false;
    p.stall_reason.clear();
  }
  set_up_workers(nworkers);
  Summary g = scan_partitions();
  tasks_done_snapshot_ = !g.unfinished;

  // Worker crew: partition i is drained by worker i % nworkers for the
  // whole run, so a task fiber never migrates between host threads. The
  // coordinator (this thread) is worker 0; window computation, the window
  // hook and failure handling happen single-threaded between windows.
  // `go` carries the window number; `stop`, W and the task snapshot ride
  // on its release.
  alignas(64) std::atomic<std::uint64_t> go{0};
  bool stop = false;
  std::uint64_t window = 0;  // windows of this run so far
  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(nworkers - 1));
  for (int w = 1; w < nworkers; ++w) {
    crew.emplace_back([this, w, &go, &stop] {
      Worker& me = workers_[static_cast<std::size_t>(w)];
      std::uint64_t seen = 0;
      for (;;) {
        std::uint64_t next = seen;
        spin_until([&] {
          next = go.load(std::memory_order_acquire);
          return next != seen;
        });
        seen = next;
        if (stop) return;
        run_window(me, seen);
        me.done.store(seen, std::memory_order_release);
      }
    });
  }
  // Leaving the loop, normally or by a throw, commits the latest event time
  // any partition reached: after a failure now() is the failing event's.
  const auto release_crew = [&] {
    stop = true;
    go.store(window + 1, std::memory_order_release);
    for (std::thread& th : crew) th.join();
    if (granted > 0) HostBudget::instance().release(granted);
    now_ = max_partition_now();
    window_end_ = kTimeInfinity;
  };
  // The slow path's rescan, after the coordinator changed the queues.
  const auto recovered = [&] {
    for (Partition& p : parts_) p.last_progress = p.now;
    g = scan_partitions();
  };

  try {
    for (;;) {
      // Global safe time S: the earliest pending event anywhere, including
      // the cross events the workers merge at the start of the next window.
      // Every partition may run past it by the window lookahead without
      // missing a cross-partition effect.
      const Time safe = g.safe();
      if (safe == kTimeInfinity) {
        // Queues drained with tasks still blocked: normally a deadlock
        // (diagnosed after the loop), but with a crashed node it means the
        // survivors are parked waiting on the dead peer — give the recovery
        // hook a chance to roll back and repopulate the queues. Nothing is
        // pending: S would be finite.
        if (recovery_hook_ && g.unfinished && recovery_hook_()) {
          g = scan_partitions();
          continue;
        }
        break;
      }
      now_ = safe;
      tasks_done_snapshot_ = !g.unfinished;
      if (watchdog_ns_ > 0 && nparts > 1 && g.unfinished &&
          safe - g.progress > watchdog_ns_) {
        merge_pending(window);
        if (recovery_hook_ && recovery_hook_()) {
          recovered();
          continue;
        }
        compose_and_throw_stall(
            watchdog_reason(safe - g.progress, watchdog_ns_));
      }
      window_end_ =
          safe > kTimeInfinity - wla ? kTimeInfinity : safe + wla;
      ++window;
      ++windows_;
      if (nworkers > 1) go.store(window, std::memory_order_release);
      run_window(workers_[0], window);
      for (int w = 1; w < nworkers; ++w) {
        const Worker& wk = workers_[static_cast<std::size_t>(w)];
        spin_until([&] {
          return wk.done.load(std::memory_order_acquire) == window;
        });
      }
      // Every partition has drained the window and the crew waits for the
      // next `go`: task fibers are host-quiescent, so a checkpoint capture
      // requested by an event inside this window can walk them now. The
      // hook reads no queue; should it throw, the window's cross events are
      // merged first, as every other exit finds them.
      if (window_hook_) {
        try {
          window_hook_();
        } catch (...) {
          merge_pending(window);
          throw;
        }
      }
      g = reduce_summaries();
      if (!g.failed) continue;
      for (Worker& w : workers_)
        if (w.error) std::rethrow_exception(w.error);
      merge_pending(window);
      // A partition stall (channel retry-budget exhaustion) is the crash
      // detection signal: when a recovery hook is installed and no partition
      // carries a real error, let it repair the cluster instead of
      // composing a stall report. Hard errors always rethrow.
      if (recovery_hook_) {
        bool any_error = false;
        bool any_stall = false;
        for (const Partition& p : parts_) {
          if (p.error) any_error = true;
          if (p.stalled) any_stall = true;
        }
        if (!any_error && any_stall && recovery_hook_()) {
          for (Partition& p : parts_) {
            p.stalled = false;
            p.stall_reason.clear();
          }
          recovered();
          continue;
        }
      }
      throw_partition_error();
    }
  } catch (...) {
    release_crew();
    throw;
  }
  release_crew();
  check_deadlock();
}

bool Engine::any_task_unfinished_raw() const {
  for (const Task* t : tasks_)
    if (!t->finished()) return true;
  return false;
}

std::string Engine::describe_blocked_tasks() const {
  std::ostringstream os;
  for (const Task* t : tasks_) {
    if (t->finished()) continue;
    os << "  " << t->name();
    if (t->node_id() >= 0) os << " [node " << t->node_id() << "]";
    if (t->wait_reason() != nullptr)
      os << " waiting on " << t->wait_reason();
    else if (t->blocked())
      os << " blocked";
    else
      os << " runnable";
    os << " at t=" << t->now() << "\n";
  }
  return os.str();
}

void Engine::fail_stall(const std::string& reason) const {
  // Inside a drain the full report cannot be composed here (it reads
  // cross-partition state); defer to the coordinator.
  if (current_partition() != nullptr) throw PendingStall{reason};
  compose_and_throw_stall(reason);
}

void Engine::compose_and_throw_stall(const std::string& reason) const {
  std::ostringstream os;
  os << reason << "\nblocked tasks:\n" << describe_blocked_tasks();
  if (stall_reporter_) os << stall_reporter_();
  throw StallError(os.str());
}

void Engine::check_deadlock() const {
  bool dead = false;
  for (const Task* t : tasks_)
    if (!t->finished()) dead = true;
  if (dead)
    throw AssertionError("simulation deadlock; blocked tasks:\n" +
                         describe_blocked_tasks());
}

// run() hands each worker the tasks of its partitions, so the task set is
// fixed while it runs.
void Engine::register_task(Task* t) {
  FGDSM_ASSERT_MSG(!running_, "task registered during Engine::run");
  tasks_.push_back(t);
}

void Engine::unregister_task(Task* t) {
  FGDSM_ASSERT_MSG(!running_, "task destroyed during Engine::run");
  tasks_.erase(std::remove(tasks_.begin(), tasks_.end(), t), tasks_.end());
}

}  // namespace fgdsm::sim
