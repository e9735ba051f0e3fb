// Deterministic discrete-event engine with partitioned event queues and a
// conservative synchronous-window parallel mode (--sim-threads).
//
// The engine owns one event partition per simulated node group (the cluster
// maps node i to partition i). Each partition holds two queues of
// (time, sequence, callback) events backed by a pooled slab representation
// (src/sim/event_pool.h): records are recycled through a free list and
// ordered by a binary heap of indices, so the steady state processes events
// with zero heap allocations. Within a partition, events at equal timestamps
// run in scheduling order (seq is a per-partition total order across both
// queues), so every run of the same program is bit-identical.
//
// The run loop (conservative synchronous-window PDES) repeatedly
//   1. computes the global safe time S = min over all partitions of the
//      earliest pending event, and the window boundary
//      W = S + min-link-latency (set_window_lookahead; the cluster wires in
//      Network::min_link_latency());
//   2. lets every partition drain its events with t < W independently — one
//      worker thread per partition group, statically pinned (partition i to
//      worker i % workers) so a task fiber never migrates between host
//      threads;
//   3. merges cross-partition sends. A send targeting another partition is
//      buffered into the source worker's outbox for the destination's
//      worker (stamped with the source partition's next sequence number).
//      Each destination appends them to its queues in the fixed order
//      (time, src seq, src partition), with freshly assigned destination
//      sequence numbers. Because the merge key and the per-partition
//      execution order are both independent of the host thread count,
//      --sim-threads=N is bit-identical to --sim-threads=1.
// Correctness of the window rests on the same minimum-latency argument as
// the task lookahead below: nothing one partition does during [S, W) can be
// observed by another partition before W, because every cross-partition
// influence crosses the wire (>= min link latency). Buffering a cross event
// asserts this invariant against the end of the window it is sent in. A
// single-partition engine (the default, and every serial/1-node run) has no
// cross-partition influence, so its window is unbounded: one pass pops its
// (time, seq) minimum to the end.
//
// Window protocol. The coordinator (the thread in run()) is worker 0. With
// several workers, one window costs one handshake and no read-modify-write
// on a shared line: the coordinator publishes the window number in one `go`
// word (release), and each worker acknowledges it in its own
// cache-line-aligned `done` word (release). These release/acquire pairs are
// the happens-before edges that publish W, the task snapshot and the
// partitions' state between windows. In window k each worker
//   a. merges window k-1's cross events addressed to its own partitions
//      (outboxes are double-buffered by window parity: a source writes
//      window k's events while the destinations read window k-1's, and a
//      worker reads one outbox per worker, never every partition's);
//   b. drains those of its partitions with an event below W;
//   c. writes a summary on its `done` line: the earliest front of its
//      partitions, the earliest cross event it buffered, its latest task
//      progress, whether a task of its partitions is unfinished, and
//      whether a partition failed or stalled.
// The coordinator computes the next S, the watchdog and the task snapshot
// from these `workers` summaries, never walking every partition or task.
// One worker needs no handshake: the coordinator runs a, b and c itself,
// the same work in the same order.
//
// Slow path. A window whose summary flags a failure, a watchdog that fires,
// and queues that drain with tasks unfinished need the coordinator to act on
// the queues. It first merges every pending cross event itself, exactly as
// the workers would have, and only then composes the error or calls the
// recovery hook, which schedules fresh resumes into the merged queues. The
// window hook (payload settle and checkpoint capture) reads no event queue,
// so it runs at every barrier before the merge.
//
// Events come in two kinds:
//   - ordinary events ("handler" events: message deliveries, timers) — a
//     running task must never let its virtual clock pass one of these,
//     because the event may mutate state the task observes (block tags);
//   - task-resume events — bookkeeping for the fiber baton. A running task
//     may run ahead of another task's pending resume by strictly less than
//     the engine's *lookahead* (conservative-PDES style): lookahead must be
//     a lower bound on the latency with which one task's actions can affect
//     another (here: message injection + wire latency). The window
//     boundary W additionally caps every task's clock; both bounds
//     preserve causality and break the livelock of equal-timestamp tasks
//     yielding to each other unconditionally.
// next_event_time() reports only ordinary events; the run loop interleaves
// both kinds in (time, sequence) order per partition.
//
// Reentrancy invariant (changed shape in the --sim-threads refactor): an
// Engine remains a fully self-contained value — no simulation RESULT ever
// depends on process-global mutable state — but a multi-partition engine is
// no longer confined to one host thread. During run() the engine
// fans partitions out over an internal worker crew; everything a partition's
// events touch (its node's memory, tags, per-link channel state, its task's
// fiber) is owned by exactly one partition, partitions are statically pinned
// to workers, and all cross-partition effects flow through the outboxes,
// handed over by the window handshake, which is also the only cross-thread
// happens-before edge the simulation needs. The thread-affine pieces are
// per host thread (the drain context below and the portable fallback's
// fiber-entry slot in task.cc).
// Host-level sizing (how many workers actually spawn) comes from the
// process-wide sim::HostBudget so batch-level and sim-level parallelism
// share one core budget; the grant affects wall time only, never results.
// Any number of independent simulations may still run concurrently on
// separate host threads (exec::BatchRunner), bit-identical to running them
// serially. A single Engine must never be entered from two threads at
// once — only its own run() may fan out.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_pool.h"
#include "src/sim/time.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

class Task;

// Thrown when forward progress provably stopped: the watchdog saw no compute
// task advance for a full stall window of virtual time, or the reliable
// channel exhausted a message's retry budget. Carries the structured
// diagnostic (blocked tasks with node/wait reason, unacked channel state,
// the offending link and message type) so a harness can print it and exit
// with kStallExitCode instead of hanging.
class StallError : public AssertionError {
 public:
  explicit StallError(const std::string& what) : AssertionError(what) {}
};

// Distinct process exit code for watchdog/stall terminations, so scripts and
// CI can tell "the protocol hung" from an ordinary failure.
inline constexpr int kStallExitCode = 86;

// Print the stall diagnostic and terminate with the documented exit code.
// The standard catch-site epilogue for harness main()s.
[[noreturn]] void exit_stall(const StallError& e);

// Thrown when a node suffered an unrecoverable fail-stop crash: crash
// injection is on but no checkpoint exists to roll back to
// (--checkpoint-every=0). Carries a structured diagnostic naming the dead
// node, so harnesses exit with kCrashExitCode instead of hanging or
// reporting a generic stall.
class CrashError : public AssertionError {
 public:
  explicit CrashError(const std::string& what) : AssertionError(what) {}
};

// Distinct process exit code for unrecoverable-crash terminations.
inline constexpr int kCrashExitCode = 87;

// Print the crash diagnostic and terminate with the documented exit code.
[[noreturn]] void exit_crash(const CrashError& e);

class Engine {
 public:
  Engine() : parts_(1) { parts_[0].index = 0; }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  // ---- Partition topology (before any scheduling) ----

  // Split the event space into n partitions (the cluster passes nnodes).
  // Must be called before any event is scheduled or task registered.
  void set_partitions(int n);
  int partitions() const { return static_cast<int>(parts_.size()); }

  // Node -> partition mapping: identity for a partitioned engine, everything
  // to partition 0 otherwise. Used by the network to route deliveries into
  // the destination's partition.
  int partition_of_node(int node) const {
    if (parts_.size() == 1) return 0;
    FGDSM_DCHECK(node >= 0 && node < static_cast<int>(parts_.size()));
    return node;
  }

  // Desired worker threads for run() (clamped to the partition
  // count and the process-wide sim::HostBudget grant at run() time). The
  // thread count never affects simulated results — only wall time.
  void set_sim_threads(int n) { sim_threads_ = n < 1 ? 1 : n; }
  int sim_threads() const { return sim_threads_; }

  // The synchronous-window lookahead: a lower bound on the latency of any
  // cross-partition influence (the cluster passes
  // Network::min_link_latency()). 0 (the default) falls back to the task
  // lookahead.
  void set_window_lookahead(Time w);
  Time window_lookahead() const {
    return window_lookahead_ > 0 ? window_lookahead_ : lookahead_;
  }

  // ---- Scheduling ----

  // Schedule an ordinary event at virtual time t (>= now()) in the current
  // partition (the one whose event is executing; partition 0 outside a run).
  // Any callable whose captures fit InlineFn::kCapacity is stored without
  // allocating.
  template <typename F>
  void schedule(Time t, F&& fn) {
    schedule_impl(current_partition_index(), t, /*is_resume=*/false,
                  InlineFn(std::forward<F>(fn)));
  }

  // Schedule into the partition owning `node` — the network's delivery
  // path. From inside another partition's drain this buffers the event into
  // an outbox for the deterministic merge at the start of the next window.
  template <typename F>
  void schedule_node(int node, Time t, F&& fn) {
    schedule_impl(partition_of_node(node), t, /*is_resume=*/false,
                  InlineFn(std::forward<F>(fn)));
  }

  // Schedule a task resumption in partition `part` (Task internals only).
  template <typename F>
  void schedule_task_resume(int part, Time t, F&& fn) {
    schedule_impl(part, t, /*is_resume=*/true, InlineFn(std::forward<F>(fn)));
  }

  // ---- Time queries ----

  // Time of the event currently being processed in the calling partition
  // (or the last committed global time outside a drain).
  Time now() const {
    const Partition* cur = current_partition();
    return cur != nullptr ? cur->now : now_;
  }

  // Timestamp of the earliest pending ordinary event, or kTimeInfinity.
  // Inside a drain this reports the calling partition's queue — the only
  // events a running task must not overtake; cross-partition events are
  // bounded by window_end() instead. Safe to call from a running task:
  // while a task runs, its partition's engine loop is blocked.
  Time next_event_time() const {
    const Partition* cur = current_partition();
    if (cur != nullptr)
      return cur->events.empty() ? kTimeInfinity : cur->events.top_time();
    Time t = kTimeInfinity;
    for (const Partition& p : parts_)
      if (!p.events.empty() && p.events.top_time() < t)
        t = p.events.top_time();
    return t;
  }

  // Timestamp of the earliest pending task resume, or kTimeInfinity.
  Time next_resume_time() const {
    const Partition* cur = current_partition();
    if (cur != nullptr)
      return cur->resumes.empty() ? kTimeInfinity : cur->resumes.top_time();
    Time t = kTimeInfinity;
    for (const Partition& p : parts_)
      if (!p.resumes.empty() && p.resumes.top_time() < t)
        t = p.resumes.top_time();
    return t;
  }

  // Index of the partition draining on the calling thread, or -1 outside
  // a drain (the coordinator between windows, setup and teardown). Lets
  // per-cluster facilities (the payload pools) shard their state per
  // partition without plumbing a node id through every call site.
  int draining_partition() const {
    const Partition* cur = current_partition();
    return cur != nullptr ? cur->index : -1;
  }

  // Current window boundary: no task may advance its clock past this
  // (cross-partition events merged at the barrier may land exactly here).
  // Infinity outside run() and throughout a single-partition run.
  Time window_end() const { return window_end_; }

  // Minimum cross-task influence latency (see file comment). Must be >= 2 to
  // guarantee progress between equal-timestamp tasks; the cluster layer sets
  // it from the cost model (message injection + wire latency).
  void set_lookahead(Time la);
  Time lookahead() const { return lookahead_; }

  // Run the event loop until all partitions drain. Throws if registered
  // tasks are still blocked when the queues drain (deadlock), or StallError
  // if the watchdog detects a virtual-time stall (see set_watchdog).
  // Reusable: the running flag is released on every exit path (including
  // exceptions thrown out of event callbacks), so a caught failure does not
  // poison later run() calls on the same engine. After a throw, now() is
  // the time of the latest event any partition processed.
  void run();

  // ---- Progress watchdog (--watchdog-ns) ----
  // With stall_ns > 0, the run loop fails with StallError whenever event
  // time moves stall_ns past the last compute-task resume while unfinished
  // tasks remain — i.e. handlers/timers keep firing (retransmissions) but no
  // task makes progress. 0 disables the watchdog (the default). Several
  // partitions are checked at window granularity (S - last progress), which
  // bounds the detection delay by one window and keeps the check
  // deterministic; a single partition, whose one window spans the run, is
  // checked at every handler event against its own last progress.
  void set_watchdog(Time stall_ns) { watchdog_ns_ = stall_ns; }

  // Extra diagnostic context appended to every stall report (the cluster
  // wires in channel + protocol state).
  void set_stall_reporter(std::function<std::string()> fn) {
    stall_reporter_ = std::move(fn);
  }

  // ---- Crash recovery hook ----
  // Called single-threaded from the coordinator, between window barriers,
  // whenever the run would otherwise fail or finish with unfinished tasks:
  // (a) a partition stalled (channel retry-budget exhaustion — the crash
  // detection signal), (b) the watchdog fired, or (c) every queue drained
  // while tasks remain blocked. Return true to mean "state repaired, keep
  // running" (the hook typically rolled the cluster back to a checkpoint and
  // scheduled fresh resume events); false to proceed with the normal
  // failure path. The hook may itself throw (e.g. CrashError when no
  // checkpoint exists).
  void set_recovery_hook(std::function<bool()> fn) {
    recovery_hook_ = std::move(fn);
  }

  // ---- Window hook ----
  // Called single-threaded from the coordinator at every window barrier:
  // every partition has fully drained its window, so all task fibers are
  // host-quiescent and may be inspected. The cluster uses it to capture
  // checkpoints requested by an event earlier in the window (the request
  // itself runs inside a partition drain, where other partitions' fibers may
  // still be executing on their workers). It runs before the window's cross
  // events are merged, so it must neither read nor schedule events.
  void set_window_hook(std::function<void()> fn) {
    window_hook_ = std::move(fn);
  }

  // Latest committed virtual time across all partitions — the earliest
  // instant a recovery hook may schedule new events at (coordinator context
  // only; used to place the rollback resume time).
  Time max_partition_now() const {
    Time t = now_;
    for (const Partition& p : parts_)
      if (p.now > t) t = p.now;
    return t;
  }

  // Compose `reason` + blocked-task dump + reporter context and throw
  // StallError. Also the failure entry point for the reliable channel's
  // retry-budget exhaustion. Inside a drain the composition is deferred:
  // the reason unwinds the partition, the window completes on the other
  // partitions, and the coordinator composes the full report
  // single-threaded at the barrier (identical text at any --sim-threads).
  [[noreturn]] void fail_stall(const std::string& reason) const;

  // One line per live task: name, node id, and what it is waiting on.
  std::string describe_blocked_tasks() const;

  // True while any registered task has not run to completion. The reliable
  // channel uses this to distinguish a real stall (work remains) from
  // transport cleanup after the program finished (a lost final ack is moot).
  // During a run with several partitions this returns the barrier-published
  // snapshot (at most one window stale) so mid-window callers on any worker
  // observe the same deterministic value at any --sim-threads. A single
  // partition has no concurrent reader and its one window spans the run, so
  // it reads the live value.
  bool any_task_unfinished() const {
    if (running_ && parts_.size() > 1) return !tasks_done_snapshot_;
    return any_task_unfinished_raw();
  }

  // Task registration (used by sim::Task's constructor/destructor).
  void register_task(Task* t);
  void unregister_task(Task* t);

  std::uint64_t events_processed() const {
    std::uint64_t n = 0;
    for (const Partition& p : parts_) n += p.events_processed;
    return n;
  }

  // Windows run so far, over every run() of this engine (a single
  // partition's unbounded window counts once per run). As deterministic as
  // events_processed(): the window sequence depends on simulated times only.
  std::uint64_t windows() const { return windows_; }

  // Allocation accounting for the perf-regression tests: how many times the
  // event slabs grew. Flat across iterations once a run reaches steady
  // state (records are recycled through the free lists).
  std::uint64_t event_slab_grows() const {
    std::uint64_t n = 0;
    for (const Partition& p : parts_)
      n += p.events.slab_grows() + p.resumes.slab_grows();
    return n;
  }

  // Test hook: start every partition's sequence counter at `base`, to
  // exercise ordering and the barrier merge near the top of the 64-bit
  // space (the seq-wraparound regression test). Traffic must not have
  // started yet.
  void set_seq_base(std::uint64_t base);

 private:
  friend class Task;

  // A cross-partition event buffered during a window and merged at the
  // start of the next. src_seq was drawn from the SOURCE partition's
  // counter (it is the deterministic merge key); on insertion the
  // destination assigns a fresh seq so per-queue seqs stay monotone in
  // insertion order.
  struct CrossEvent {
    CrossEvent(int dst, Time time, std::uint64_t seq, std::uint32_t src,
               bool resume, InlineFn&& f)
        : dst_part(dst), t(time), src_seq(seq), src_part(src),
          is_resume(resume), fn(std::move(f)) {}
    int dst_part;
    Time t;
    std::uint64_t src_seq;
    std::uint32_t src_part;
    bool is_resume;
    InlineFn fn;
  };

  // The merge sorts these small keys, not the events, and then moves each
  // callable once, straight into its destination queue.
  struct MergeKey {
    Time t;
    std::uint64_t src_seq;
    std::uint32_t src_part;
    int dst_part;
    CrossEvent* ev;
  };

  // One source worker's cross events for one destination worker in one
  // window. Its own line: a destination empties it while the source fills
  // the other parity's.
  struct alignas(64) Outbox {
    std::vector<CrossEvent> events;
  };

  // A worker's end-of-window report, written before its `done` store.
  struct Summary {
    Time front = kTimeInfinity;      // earliest pending event, own partitions
    Time cross_min = kTimeInfinity;  // earliest cross event buffered
    Time progress = 0;               // latest task resume, own partitions
    bool unfinished = false;         // a task of its partitions is not done
    bool failed = false;  // a partition failed or stalled, or the worker did
    Time safe() const { return front < cross_min ? front : cross_min; }
  };

  // One host worker of run(): worker w drains partitions w, w + workers, ...
  // The first line is the handshake: the coordinator reads `done` and the
  // summary there, and nothing else the worker writes during a window.
  struct alignas(64) Worker {
    std::atomic<std::uint64_t> done{0};  // last window finished (release)
    Summary summary;
    // Worker-private during a window, apart from the outboxes (read by
    // their destinations in the next window).
    alignas(64) int index = 0;
    std::vector<Outbox> out[2];  // [window parity][destination worker]
    Outbox* cur_out = nullptr;   // out[parity of the current window]
    Time cross_min = kTimeInfinity;
    std::vector<MergeKey> keys;  // merge scratch
    std::vector<const Task*> tasks;  // tasks of its partitions
    std::size_t task_cursor = 0;     // tasks before it have finished
    std::exception_ptr error;  // a failure outside any partition's drain
  };

  // One event partition. alignas(64) keeps concurrently drained partitions
  // off each other's cache lines.
  struct alignas(64) Partition {
    EventQueue events;   // ordinary (handler) events
    EventQueue resumes;  // task-resume events
    std::uint64_t next_seq = 0;
    std::uint64_t events_processed = 0;
    Time now = 0;
    Time last_progress = 0;  // event time of the latest task resume
    Worker* worker = nullptr;  // the worker draining it in the current run
    // First failure inside this partition's current window (composed and
    // rethrown by the coordinator; lowest partition id wins).
    std::exception_ptr error;
    std::string stall_reason;
    bool stalled = false;
    int index = 0;

    Time front_time() const;
  };

  // The partition whose event is executing on THIS host thread (null when
  // no drain is active here). Thread-local so concurrent workers — and
  // independent engines on batch threads — never alias.
  static const Engine*& tls_engine() {
    static thread_local const Engine* e = nullptr;
    return e;
  }
  static Partition*& tls_partition() {
    static thread_local Partition* p = nullptr;
    return p;
  }
  const Partition* current_partition() const {
    return tls_engine() == this ? tls_partition() : nullptr;
  }
  int current_partition_index() const {
    const Partition* cur = current_partition();
    return cur != nullptr ? cur->index : 0;
  }

  // Hot path: insert into the target partition, or — when called from
  // another partition's drain — buffer into the source worker's outbox for
  // the destination's worker, stamped with the SOURCE partition's sequence
  // number (the deterministic merge key).
  void schedule_impl(int part, Time t, bool is_resume, InlineFn&& fn) {
    FGDSM_ASSERT_MSG(part >= 0 && part < static_cast<int>(parts_.size()),
                     "partition " << part << " out of range");
    Partition* cur = tls_engine() == this ? tls_partition() : nullptr;
    if (cur != nullptr && part != cur->index) {
      FGDSM_ASSERT_MSG(t >= cur->now,
                       "cross-partition event scheduled in the past: t=" << t
                           << " < now=" << cur->now);
      // The conservative-window soundness invariant: nothing sent during
      // [S, W) may land before W in another partition. A violation means
      // the configured min-link-latency overstates the real minimum.
      FGDSM_ASSERT_MSG(t >= window_end_ || window_end_ == kTimeInfinity,
                       "cross-partition event at t="
                           << t << " violates the window boundary W="
                           << window_end_
                           << " (window lookahead exceeds the true minimum "
                              "cross-partition latency)");
      Worker& w = *cur->worker;
      w.cur_out[static_cast<std::size_t>(part % nworkers_)].events
          .emplace_back(part, t, cur->next_seq++,
                        static_cast<std::uint32_t>(cur->index), is_resume,
                        std::move(fn));
      if (t < w.cross_min) w.cross_min = t;
      return;
    }
    Partition& p =
        cur != nullptr ? *cur : parts_[static_cast<std::size_t>(part)];
    FGDSM_ASSERT_MSG(t >= p.now, "event scheduled in the past: t="
                                     << t << " < now=" << p.now);
    (is_resume ? p.resumes : p.events).push(t, p.next_seq++, std::move(fn));
  }

  // True if a's front event should run before b's ((time, seq) order).
  static bool front_precedes(const EventQueue& a, const EventQueue& b);

  void drain_partition(Partition& p, Time wend);
  void set_up_workers(int nworkers);
  void run_window(Worker& w, std::uint64_t window);
  void merge_into(Worker& w, int parity);
  void merge_pending(std::uint64_t window);
  Summary scan_partitions();
  Summary reduce_summaries() const;
  void throw_partition_error();
  bool any_task_unfinished_raw() const;
  void check_deadlock() const;
  [[noreturn]] void compose_and_throw_stall(const std::string& reason) const;

  std::vector<Partition> parts_;
  std::vector<Worker> workers_;  // sized by run(); kept for their capacity
  int nworkers_ = 1;
  Time lookahead_ = 1000;  // conservative default; cluster overrides
  Time window_lookahead_ = 0;  // 0 = fall back to lookahead_
  int sim_threads_ = 1;
  Time watchdog_ns_ = 0;  // 0 = watchdog off
  std::function<std::string()> stall_reporter_;
  std::function<bool()> recovery_hook_;
  std::function<void()> window_hook_;
  Time now_ = 0;  // committed global time (outside any drain)
  // Window state: written by the coordinator between windows, read by
  // workers during the window (the `go` handshake provides the ordering).
  Time window_end_ = kTimeInfinity;
  bool tasks_done_snapshot_ = false;
  std::uint64_t windows_ = 0;
  std::vector<Task*> tasks_;
  bool running_ = false;
};

}  // namespace fgdsm::sim
