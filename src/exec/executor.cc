#include "src/exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/core/plan.h"
#include "src/core/plan_table.h"
#include "src/hpf/analysis.h"
#include "src/irreg/inspector.h"
#include "src/irreg/runtime.h"
#include "src/mp/runtime.h"
#include "src/proto/stache.h"
#include "src/sim/trace.h"
#include "src/tempest/cluster.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace fgdsm::exec {
namespace {

using core::CommPlan;
using core::Mode;
using hpf::Bindings;
using hpf::ConcreteInterval;
using hpf::ConcreteSection;
using hpf::GAddr;
using hpf::Run;
using tempest::BlockId;
using tempest::Node;

// The plan of a loop visit that communicates nothing: unplanned modes, and
// visits whose transfers availability elides.
const CommPlan kNoComm;

bool transfer_eq(const hpf::Transfer& a, const hpf::Transfer& b) {
  return a.array == b.array && a.sender == b.sender &&
         a.receiver == b.receiver && a.for_write == b.for_write &&
         a.section == b.section;
}
bool transfers_eq(const std::vector<hpf::Transfer>& a,
                  const std::vector<hpf::Transfer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!transfer_eq(a[i], b[i])) return false;
  return true;
}

// One loop visit's references, compiled against the node's bindings and the
// run's layouts when the visit's chunks start (src/hpf/analysis.h). A
// reference's dimensions are `rank` CompiledSubs from `first` in `subs`.
struct CompiledAccess {
  std::size_t first = 0;
  std::size_t rank = 0;
  const hpf::ArrayLayout* layout = nullptr;
};
struct CompiledIndirect {
  CompiledAccess index;  // the affine index footprint
  bool index_checked = false;  // index array under access control
  const hpf::ArrayLayout* data = nullptr;  // null: replicated data array
  std::int64_t value_offset = 0;
};
// Rebuilt at every visit, never checkpointed: no checkpoint is taken inside
// a visit's chunk loop. The vectors keep their capacity across visits, so
// compiling allocates only while a visit needs more than any before it.
struct CompiledVisit {
  std::vector<hpf::CompiledFree> free;
  std::vector<hpf::CompiledSub> subs;
  // Reads and writes of arrays under access control (not replicated).
  std::vector<CompiledAccess> reads, writes;
  std::vector<CompiledIndirect> ind;
};

// Per-node execution state.
struct NodeRun {
  Node* node = nullptr;
  sim::Task* task = nullptr;
  Bindings bind;  // sizes + $p/$np + live time-loop counters
  std::map<std::string, double> scalars;
  double reduce_acc = 0.0;

  // §4.3 run-time overhead elimination: ranges already opened by
  // implicit_writable, per loop (first-time-only fast path).
  std::map<const hpf::ParallelLoop*, std::vector<Run>> opened;

  // Redundant-communication elimination (extension): per-array write
  // versions and the last communicated transfer set per loop (the table
  // entry holding it).
  std::map<std::string, std::int64_t> write_version;
  struct AvailEntry {
    // The write version of each of entry's transfers' arrays at comm time,
    // by transfer index.
    std::vector<std::int64_t> versions;
    const core::PlanTable::Entry* entry = nullptr;
  };
  std::map<const hpf::ParallelLoop*, AvailEntry> avail;

  // The plan-table entry of each loop's last visit. A visit whose key is
  // unchanged is served from here without touching the shared table; for
  // loops with indirect reads this record is the inspect-or-replay
  // decision, so it is checkpointed with the rest of the node's state.
  std::map<const hpf::ParallelLoop*, const core::PlanTable::Entry*> plans;
  std::uint64_t plan_hits = 0;    // visits served by `plans`
  std::uint64_t plan_misses = 0;  // visits that went to the table

  // Per-parallel-loop counter deltas, accumulated at phase boundaries.
  std::map<std::string, util::NodeStats> loop_stats;

  // Hot-path scratch, reused across chunks and visits so that a node's
  // later visits to a loop allocate nothing: inspector need-list
  // temporaries (spmv without schedule reuse re-inspects every step), an
  // irregular loop's plan-key extras, the current visit's compiled
  // references, and per-chunk footprint temporaries. None of it is
  // checkpointed; each visit rebuilds what it reads.
  irreg::ScanScratch irreg_scratch;
  std::vector<const std::string*> index_arrays;
  std::vector<std::int64_t> plan_extra;
  CompiledVisit visit;
  hpf::ConcreteSection fp_section;
  std::vector<Node::Extent> read_runs, write_runs;
  std::vector<Run> runs, index_runs;

  util::NodeStats snap;      // stats at program completion
  sim::Time snap_time = 0;
};

// Host state a checkpoint must carry for one node (see the hook registered
// in the Executor ctor): everything the replayed program path reads,
// including the elision registries (opened ranges, availability) and the
// plan records — restored by value so the deterministic replay makes
// exactly the decisions the checkpointed timeline would have, keeping the
// collective any_comm/any_flush choices and the inspector's needs exchange
// aligned across nodes. The records point into the run's PlanTable, whose
// entries live until the run ends, so they stay valid across rollbacks — as
// does the plan reference exec_loop_inner holds on the fiber stack. The
// hit/miss counters stay unrestored, like NodeStats.
struct NodeRunSnap {
  Bindings bind;
  std::map<std::string, double> scalars;
  double reduce_acc = 0.0;
  std::map<std::string, std::int64_t> write_version;
  std::map<const hpf::ParallelLoop*, std::vector<Run>> opened;
  std::map<const hpf::ParallelLoop*, NodeRun::AvailEntry> avail;
  std::map<const hpf::ParallelLoop*, const core::PlanTable::Entry*> plans;
};

// The run's array layouts, by name and by index in Program::arrays.
struct Layouts {
  core::LayoutMap by_name;
  std::vector<const hpf::ArrayLayout*> by_index;
};

class ExecCtx final : public hpf::BodyCtx {
 public:
  ExecCtx(NodeRun& st, const Layouts& layouts, std::int64_t dist)
      : st_(st), layouts_(layouts), dist_(dist) {}

  std::int64_t dist() const override { return dist_; }
  std::int64_t sym(const std::string& name) const override {
    return st_.bind.get(name);
  }
  double scalar(const std::string& name) const override {
    auto it = st_.scalars.find(name);
    FGDSM_ASSERT_MSG(it != st_.scalars.end(), "unknown scalar " << name);
    return it->second;
  }
  void set_scalar(const std::string& name, double v) override {
    st_.scalars[name] = v;
  }
  void contribute(double v) override { st_.reduce_acc += v; }
  double* data(const std::string& array) override {
    return reinterpret_cast<double*>(
        st_.node->mem(layouts_.by_name.at(array).base));
  }
  const hpf::ArrayLayout& layout(const std::string& array) const override {
    return layouts_.by_name.at(array);
  }
  double* data(const hpf::ArrayHandle& array) override {
    return reinterpret_cast<double*>(st_.node->mem(layout(array).base));
  }
  const hpf::ArrayLayout& layout(
      const hpf::ArrayHandle& array) const override {
    const hpf::ArrayLayout& l = *layouts_.by_index[array.index];
    FGDSM_DCHECK(l.name == array.name);
    return l;
  }

 private:
  NodeRun& st_;
  const Layouts& layouts_;
  std::int64_t dist_;
};

class Executor {
 public:
  Executor(const hpf::Program& prog, RunConfig cfg)
      : prog_(prog), cfg_(std::move(cfg)), cluster_([&] {
          tempest::ClusterConfig c = cfg_.cluster;
          if (cfg_.opt.mode == Mode::kSerial) c.nnodes = 1;
          if (!cfg_.trace_path.empty()) {
            tracer_ = std::make_unique<sim::Tracer>();
            c.tracer = tracer_.get();
          }
          return c;
        }()) {
    FGDSM_ASSERT_MSG(!cfg_.opt.elim_redundant_comm ||
                         cfg_.opt.rt_overhead_elim,
                     "redundant-communication elimination requires the "
                     "run-time overhead elimination level");
    // Allocate arrays.
    for (const auto& a : prog_.arrays) {
      hpf::ArrayLayout lay;
      lay.name = a.name;
      for (const auto& e : a.extents) lay.extents.push_back(e.eval(bind0()));
      lay.elem = 8;
      lay.base = cluster_.allocate(a.name, lay.bytes());
      layouts_.by_index.push_back(&(layouts_.by_name[a.name] = lay));
      // Storage the coherence tags cannot account for must be checkpointed
      // unconditionally: replicated arrays are per-node private copies in
      // every mode, and the MP backend bypasses access control for all of
      // its arrays (each node's local copy is its own ground truth).
      if (a.dist == hpf::DistKind::kReplicated ||
          cfg_.opt.mode == Mode::kMsgPassing)
        cluster_.capture_always(lay.base, lay.bytes());
    }
    switch (cfg_.opt.mode) {
      case Mode::kShmemUnopt:
      case Mode::kShmemOpt:
        stache_ = std::make_unique<proto::Stache>(cluster_);
        break;
      case Mode::kMsgPassing:
        mp_ = std::make_unique<mp::MpRuntime>(cluster_);
        break;
      case Mode::kSerial:
        break;
    }
    // Inspector–executor runtime: only the planned modes inspect (the
    // default protocol and the serial interpreter handle indirection
    // transparently), and only programs with indirect reads need it.
    if ((cfg_.opt.mode == Mode::kShmemOpt ||
         cfg_.opt.mode == Mode::kMsgPassing) &&
        irreg::has_indirect(prog_))
      irreg_ = std::make_unique<irreg::IrregRuntime>(cluster_);
    nodes_.resize(static_cast<std::size_t>(cluster_.nnodes()));
    // Crash recovery: the cluster checkpoint covers node memory, tags and
    // task fibers, but the executor keeps per-node interpreter state on the
    // host. The initial t=0 capture sees default-constructed NodeRuns —
    // consistent with its not-yet-activated task snapshots (node_main
    // re-initializes both on replay).
    cluster_.register_host_state_hook(
        {[this]() -> std::shared_ptr<void> {
           auto blob = std::make_shared<std::vector<NodeRunSnap>>();
           blob->reserve(nodes_.size());
           for (const NodeRun& st : nodes_)
             blob->push_back({st.bind, st.scalars, st.reduce_acc,
                              st.write_version, st.opened, st.avail,
                              st.plans});
           return blob;
         },
         [this](const std::shared_ptr<void>& b) {
           const auto& snap =
               *std::static_pointer_cast<std::vector<NodeRunSnap>>(b);
           for (std::size_t i = 0; i < nodes_.size(); ++i) {
             NodeRun& st = nodes_[i];
             st.bind = snap[i].bind;
             st.scalars = snap[i].scalars;
             st.reduce_acc = snap[i].reduce_acc;
             st.write_version = snap[i].write_version;
             st.opened = snap[i].opened;
             st.avail = snap[i].avail;
             st.plans = snap[i].plans;
           }
         }});
  }

  RunResult execute() {
    cluster_.run([this](Node& n, sim::Task& t) { node_main(n, t); });
    RunResult res;
    res.stats = util::RunStats(cluster_.nnodes());
    for (int i = 0; i < cluster_.nnodes(); ++i) {
      res.stats.node[static_cast<std::size_t>(i)] =
          nodes_[static_cast<std::size_t>(i)].snap;
      res.stats.elapsed_ns =
          std::max(res.stats.elapsed_ns,
                   nodes_[static_cast<std::size_t>(i)].snap_time);
    }
    res.scalars = nodes_[0].scalars;
    res.engine_events = cluster_.engine().events_processed();
    for (const auto& nr : nodes_)
      for (const auto& [name, delta] : nr.loop_stats)
        res.stats.per_loop[name] += delta;
    if (cfg_.gather_arrays) gather_into(res);
    if (tracer_) tracer_->write_file(cfg_.trace_path);
    return res;
  }

 private:
  Bindings bind0() const {
    Bindings b = prog_.sizes;
    // Overlay overrides (overrides win; Bindings::set replaces).
    overlay(b, cfg_.size_overrides);
    b.set(hpf::kSymNProcs, cluster_.nnodes());
    b.set(hpf::kSymProc, 0);
    return b;
  }
  static void overlay(Bindings& dst, const Bindings& src) {
    for (const auto& [k, v] : src.values()) dst.set(k, v);
  }

  bool shmem() const {
    return cfg_.opt.mode == Mode::kShmemUnopt ||
           cfg_.opt.mode == Mode::kShmemOpt;
  }

  void node_main(Node& n, sim::Task& t) {
    NodeRun& st = nodes_[static_cast<std::size_t>(n.id())];
    st.node = &n;
    st.task = &t;
    st.bind = bind0();
    st.bind.set(hpf::kSymProc, n.id());
    exec_phases(prog_.phases, st);
    n.barrier(t);
    st.snap = n.stats;
    st.snap.plan_cache_hits = st.plan_hits;
    st.snap.plan_cache_misses = st.plan_misses;
    st.snap_time = t.now();
    if (cfg_.gather_arrays && shmem()) gather_owned(st);
  }

  void exec_phases(const std::vector<hpf::Phase>& phases, NodeRun& st) {
    for (const auto& ph : phases) {
      switch (ph.kind) {
        case hpf::Phase::Kind::kParallelLoop:
          exec_loop(*ph.loop, st);
          break;
        case hpf::Phase::Kind::kScalar:
          exec_scalar(*ph.scalar, st);
          break;
        case hpf::Phase::Kind::kTimeLoop:
          exec_time(*ph.time, st);
          break;
      }
    }
  }

  void exec_scalar(const hpf::ScalarPhase& sp, NodeRun& st) {
    ExecCtx ctx(st, layouts_, /*dist=*/0);
    sp.body(ctx);
    st.task->charge(static_cast<sim::Time>(sp.cost_ns));
    st.node->stats.compute_ns += static_cast<sim::Time>(sp.cost_ns);
  }

  void exec_time(const hpf::TimeLoop& tl, NodeRun& st) {
    const std::int64_t count = tl.count.eval(st.bind);
    for (std::int64_t it = 0; it < count; ++it) {
      st.bind.set(tl.counter, it);
      exec_phases(tl.phases, st);
      if (tl.exit_when) {
        ExecCtx ctx(st, layouts_, 0);
        if (tl.exit_when(ctx)) break;
      }
    }
  }

  // ---- The heart: one parallel loop under the configured mode ----
  void exec_loop(const hpf::ParallelLoop& loop, NodeRun& st) {
    const util::NodeStats before = st.node->stats;
    const sim::Time lt0 = st.task->now();
    exec_loop_inner(loop, st);
    util::NodeStats delta = st.node->stats;
    delta -= before;
    st.loop_stats[loop.name] += delta;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(st.node->id()), "loop",
               tr->intern(loop.name),
               lt0, st.task->now());
  }

  void exec_loop_inner(const hpf::ParallelLoop& loop, NodeRun& st) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    FGDSM_LOG("exec", "node " << n.id() << " loop " << loop.name << " t="
                              << t.now());
    const int np = cluster_.nnodes();
    const ConcreteInterval iters =
        hpf::local_iters(loop, prog_, st.bind, np, n.id());

    if (cfg_.opt.mode == Mode::kSerial) {
      run_chunks(loop, st, iters, /*checks=*/false,
                 cluster_.costs().uni_cache_penalty);
      finish_reduce_and_sync(loop, st, /*need_barrier=*/false);
      bump_versions(loop, st);
      return;
    }

    const bool irregular = irreg::has_indirect(loop);
    // The plan lives in the run's PlanTable (or is kNoComm), never on the
    // fiber stack, so it survives the checkpoint barriers below.
    const bool planned = cfg_.opt.mode == Mode::kShmemOpt ||
                         cfg_.opt.mode == Mode::kMsgPassing;
    const CommPlan& plan = !planned    ? kNoComm
                           : irregular ? plan_for_irreg_loop(loop, st)
                                       : plan_for_loop(loop, st);

    // Executor half of the inspector–executor pair: replaying the
    // materialized schedule is the ordinary prologue/epilogue below, traced
    // separately so schedule replay is attributable against inspection.
    const sim::Time sched0 = t.now();
    if (cfg_.opt.mode == Mode::kShmemOpt && plan.any_comm)
      ccc_prologue(loop, plan, st);
    if (cfg_.opt.mode == Mode::kMsgPassing && plan.any_comm)
      mp_prologue(plan, st);
    if (irregular && plan.any_comm)
      if (auto* tr = cluster_.tracer())
        tr->span(sim::Tracer::compute_track(n.id()), "schedule-exec",
                 tr->intern(loop.name), sched0, t.now());

    run_chunks(loop, st, iters, /*checks=*/shmem(), 1.0);

    if (cfg_.opt.mode == Mode::kShmemOpt && plan.any_comm)
      ccc_epilogue(plan, st);
    if (cfg_.opt.mode == Mode::kMsgPassing && plan.any_comm)
      mp_epilogue(plan, st);

    // End-of-loop synchronization: the reduction is itself synchronizing;
    // otherwise a barrier separates this loop's writes from the next loop's
    // reads. The MP backend self-synchronizes through its receives.
    finish_reduce_and_sync(loop, st,
                           cfg_.opt.mode != Mode::kMsgPassing);
    bump_versions(loop, st);
  }

  void finish_reduce_and_sync(const hpf::ParallelLoop& loop, NodeRun& st,
                              bool need_barrier) {
    if (loop.has_reduce) {
      tempest::Node::ReduceOp op = tempest::Node::ReduceOp::kSum;
      if (loop.reduce_op == hpf::ReduceOp::kMax)
        op = tempest::Node::ReduceOp::kMax;
      if (loop.reduce_op == hpf::ReduceOp::kMin)
        op = tempest::Node::ReduceOp::kMin;
      st.scalars[loop.reduce_scalar] =
          st.node->allreduce(*st.task, st.reduce_acc, op);
      st.reduce_acc = 0.0;
    } else if (need_barrier) {
      st.node->barrier(*st.task);
    }
  }

  void bump_versions(const hpf::ParallelLoop& loop, NodeRun& st) {
    for (const auto& w : loop.writes) ++st.write_version[w.array];
  }

  // This node's plan-table entry for `loop` under its current bindings
  // plus `extra`, if its record from the last visit still matches; the
  // lookup is counted either way (a miss goes on to the shared table).
  const core::PlanTable::Entry* recorded(
      const hpf::ParallelLoop& loop, NodeRun& st,
      const std::vector<std::int64_t>& extra) {
    auto it = st.plans.find(&loop);
    if (it != st.plans.end() && it->second->matches(st.bind, extra)) {
      ++st.plan_hits;
      return it->second;
    }
    ++st.plan_misses;
    return nullptr;
  }

  // The plan for this visit of `loop`: the table analyzes each (loop, key)
  // once for the whole cluster. Availability filtering (elim_redundant_comm)
  // is re-applied on every visit on top of the entry's transfer set, since
  // it depends on the live write versions; it elides all-or-nothing.
  const CommPlan& plan_for_loop(const hpf::ParallelLoop& loop, NodeRun& st) {
    const core::PlanTable::Entry* e = recorded(loop, st, {});
    if (e == nullptr) {
      e = &table_.get(loop, st.bind);
      st.plans[&loop] = e;
    }
    if (cfg_.opt.elim_redundant_comm && available(loop, st, *e) &&
        !e->transfers.empty())
      return kNoComm;
    return e->plans[static_cast<std::size_t>(st.node->id())];
  }

  // The plan for a loop with indirect reads. The affine analysis still
  // covers the loop's direct references (including the indirection arrays
  // themselves); the inspector contributes the data-dependent gather set:
  // scan the local index slice, exchange need lists, and fold the identical
  // global set into transfers — once per key, by whichever node reaches the
  // table first.
  //
  // The schedule is reused while the indirection arrays' write versions
  // (bumped identically on every node by bump_versions) and the structural
  // symbols are unchanged, so iterative apps inspect once and replay — the
  // CHAOS/PARTI amortization. The node's record decides, and records are
  // symmetric cluster-wide (same versions, same symbols, restored together
  // at rollback), which keeps the collective exchange() calls aligned.
  //
  // Availability filtering (elim_redundant_comm) is deliberately not
  // applied: its transfer-set equality test would have to re-run the
  // inspector to produce the set it compares, defeating the elision.
  const CommPlan& plan_for_irreg_loop(const hpf::ParallelLoop& loop,
                                      NodeRun& st) {
    const int np = cluster_.nnodes();
    const int me = st.node->id();
    Node& n = *st.node;
    sim::Task& t = *st.task;

    // The key's extra values: the write version of each distinct
    // indirection array, in name order.
    std::vector<const std::string*>& names = st.index_arrays;
    names.clear();
    for (const auto& ir : loop.ind_reads) names.push_back(&ir.index_array);
    const auto by_name = [](const std::string* a, const std::string* b) {
      return *a < *b;
    };
    std::sort(names.begin(), names.end(), by_name);
    std::vector<std::int64_t>& extra = st.plan_extra;
    extra.clear();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (i == 0 || by_name(names[i - 1], names[i]))
        extra.push_back(st.write_version[*names[i]]);

    if (cfg_.opt.reuse_schedule) {
      if (const auto* e = recorded(loop, st, extra)) {
        ++n.stats.sched_cache_hits;
        return e->plans[static_cast<std::size_t>(me)];
      }
      ++n.stats.sched_cache_misses;
    } else {
      ++st.plan_misses;
    }

    ++n.stats.irreg_inspections;
    const sim::Time t0 = t.now();
    irreg::ScanResult sr =
        irreg::scan(loop, prog_, st.bind, layouts_.by_name, np, n, t,
                    /*ensure_index=*/shmem(), &st.irreg_scratch);
    const std::vector<std::vector<irreg::Need>> all =
        irreg_->exchange(n, t, std::move(sr.needs));
    const core::PlanTable::Entry& e = table_.get(loop, st.bind, extra, [&] {
      return irreg::needs_to_transfers(all, loop, prog_, st.bind, np);
    });
    st.plans[&loop] = &e;
    n.stats.ccc_ns += t.now() - t0;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(me), "inspect",
               tr->intern(loop.name), t0, t.now());
    return e.plans[static_cast<std::size_t>(me)];
  }

  // Availability (PRE-style, §4.3's second problem): true if this loop's
  // transfer set is identical to the last one communicated here and none
  // of the involved arrays has been written since — the data is still
  // valid at the receivers (requires rt_overhead_elim: receivers keep their
  // copies open). Otherwise records `e` as the last communicated set.
  bool available(const hpf::ParallelLoop& loop, NodeRun& st,
                 const core::PlanTable::Entry& e) {
    NodeRun::AvailEntry& a = st.avail[&loop];
    bool skip = a.entry != nullptr &&
                (a.entry == &e ||
                 transfers_eq(a.entry->transfers, e.transfers));
    for (std::size_t i = 0; skip && i < e.transfers.size(); ++i)
      skip = a.versions[i] == st.write_version[e.transfers[i].array];
    if (skip) {
      st.node->stats.ccc_calls_elided += e.transfers.size();
      return true;
    }
    a.entry = &e;
    a.versions.clear();
    for (const auto& tr : e.transfers)
      a.versions.push_back(st.write_version[tr.array]);
    return false;
  }

  // ---- Compiler-directed coherence (Figure 2 call sequence) ----

  void ccc_prologue(const hpf::ParallelLoop& loop, const CommPlan& plan,
                    NodeRun& st) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    proto::Stache& p = *stache_;
    const std::size_t bs = cluster_.block_size();
    const std::size_t payload =
        cfg_.opt.bulk_transfer ? cfg_.opt.max_payload : bs;
    const sim::Time p0 = t.now();

    // CCC calls happen only after pending transactions complete (§5).
    sim::Time t0 = t.now();
    p.drain(n, t);

    if (!cfg_.opt.rt_overhead_elim) {
      for (const Run& r : plan.mk_writable)
        p.mk_writable(n, t, cluster_.block_of(r.addr),
                      cluster_.block_of(r.addr + r.len - 1));
      st.node->stats.ccc_ns += t.now() - t0;
      n.barrier(t);
      t0 = t.now();
    }

    // implicit_writable — first-time-only under rt overhead elimination.
    bool open_needed = !plan.recv.empty();
    if (cfg_.opt.rt_overhead_elim) {
      auto it = st.opened.find(&loop);
      if (it != st.opened.end() && it->second == plan.recv) {
        open_needed = false;
        t.charge(cluster_.costs().ccc_test_only_cost);
        ++n.stats.ccc_calls_elided;
      } else {
        st.opened[&loop] = plan.recv;
      }
    }
    if (open_needed)
      for (const Run& r : plan.recv)
        p.implicit_writable(n, t, cluster_.block_of(r.addr),
                            cluster_.block_of(r.addr + r.len - 1));
    st.node->stats.ccc_ns += t.now() - t0;

    n.barrier(t);

    t0 = t.now();
    for (const auto& s : plan.sends)
      p.send_blocks(n, t, s.run.addr, s.run.len, s.dst, payload);
    p.ready_to_recv(n, t, plan.expected_pre);
    st.node->stats.ccc_ns += t.now() - t0;

    // Non-owner writes add a post-loop flush phase that posts the same
    // counting semaphore; a fast writer's flush must not satisfy a slow
    // node's pre-loop wait (and the late pre-loop data would then overwrite
    // its freshly computed values). One barrier separates the phases —
    // any_flush is a global decision, so every node agrees.
    if (plan.any_flush) n.barrier(t);
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(n.id()), "ccc", "ccc_prologue", p0,
               t.now());
  }

  void ccc_epilogue(const CommPlan& plan, NodeRun& st) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    proto::Stache& p = *stache_;
    const std::size_t payload = cfg_.opt.bulk_transfer
                                    ? cfg_.opt.max_payload
                                    : cluster_.block_size();

    const sim::Time t0 = t.now();
    // Non-owner writes return to the owner.
    for (const auto& f : plan.flushes)
      p.ccc_flush(n, t, f.run.addr, f.run.len, f.owner, payload);
    if (plan.expected_post > 0) p.ready_to_recv(n, t, plan.expected_post);

    if (!cfg_.opt.rt_overhead_elim) {
      for (const Run& r : plan.recv)
        p.implicit_invalidate(n, t, cluster_.block_of(r.addr),
                              cluster_.block_of(r.addr + r.len - 1));
      // Clear the first-time registry consistency: not needed (registry is
      // only consulted under rt_overhead_elim).
    }
    st.node->stats.ccc_ns += t.now() - t0;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(n.id()), "ccc", "ccc_epilogue", t0,
               t.now());
  }

  // ---- Message-passing backend ----

  void mp_prologue(const CommPlan& plan, NodeRun& st) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    const sim::Time t0 = t.now();
    mp_->advance_epoch(n, t);
    for (const auto& s : plan.sends)
      mp_->send(n, t, s.run.addr, s.run.len, s.dst,
                cluster_.costs().mp_max_payload);
    mp_->recv(n, t, plan.expected_pre);
    n.stats.ccc_ns += t.now() - t0;  // "communication time" bucket
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(n.id()), "ccc", "mp_prologue", t0,
               t.now());
  }

  void mp_epilogue(const CommPlan& plan, NodeRun& st) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    // The flush phase gets its own epoch whenever ANY node flushes —
    // any_flush is a global decision (derived from the same transfer list
    // on every node), so epoch counters stay aligned cluster-wide.
    if (plan.any_flush) {
      const sim::Time t0 = t.now();
      mp_->advance_epoch(n, t);
      for (const auto& f : plan.flushes)
        mp_->send(n, t, f.run.addr, f.run.len, f.owner,
                  cluster_.costs().mp_max_payload);
      mp_->recv(n, t, plan.expected_post);
      n.stats.ccc_ns += t.now() - t0;
      if (auto* tr = cluster_.tracer())
        tr->span(sim::Tracer::compute_track(n.id()), "ccc", "mp_epilogue", t0,
                 t.now());
    }
  }

  // ---- Chunk execution ----

  void run_chunks(const hpf::ParallelLoop& loop, NodeRun& st,
                  const ConcreteInterval& iters, bool checks,
                  double cost_factor) {
    Node& n = *st.node;
    sim::Task& t = *st.task;
    if (iters.empty()) return;
    CompiledVisit& v = st.visit;
    compile_visit(loop, st, checks);
    std::vector<Node::Extent>& read_runs = st.read_runs;
    std::vector<Node::Extent>& write_runs = st.write_runs;
    for (std::int64_t j = iters.lo; j <= iters.hi; j += iters.stride) {
      write_runs.clear();
      if (checks) {
        // Validate the whole chunk footprint atomically (a block validated
        // early must not be revoked while a later range's fault stalls).
        read_runs.clear();
        for (const CompiledAccess& a : v.reads) {
          chunk_runs(st, a, j, &st.runs);
          for (const Run& r : st.runs)
            read_runs.push_back(Node::Extent{r.addr, r.len});
        }
        for (const CompiledAccess& a : v.writes) {
          chunk_runs(st, a, j, &st.runs);
          for (const Run& r : st.runs)
            write_runs.push_back(Node::Extent{r.addr, r.len});
        }
        // Indirect reads: the chunk's index footprint is affine, but the
        // data footprint exists only as the stored index values. Fault the
        // index runs readable first (so the values can be read), then add
        // the per-element data extents to the same atomic validation.
        for (const CompiledIndirect& ir : v.ind) {
          chunk_runs(st, ir.index, j, &st.index_runs);
          if (ir.index_checked) {
            for (const Run& r : st.index_runs) {
              n.ensure_readable(t, r.addr, r.len);
              read_runs.push_back(Node::Extent{r.addr, r.len});
            }
          }
          if (ir.data == nullptr) continue;
          const hpf::ArrayLayout& dlay = *ir.data;
          const std::int64_t dn = dlay.extents[0];
          for (const Run& r : st.index_runs) {
            const double* vals =
                reinterpret_cast<const double*>(n.mem(r.addr));
            const std::size_t count = r.len / sizeof(double);
            for (std::size_t kk = 0; kk < count; ++kk) {
              const std::int64_t e =
                  std::llround(vals[kk]) + ir.value_offset;
              FGDSM_ASSERT_MSG(e >= 0 && e < dn,
                               "indirection value out of range: "
                                   << dlay.name << "(" << e << ") of " << dn);
              read_runs.push_back(Node::Extent{
                  dlay.base + static_cast<GAddr>(e) * dlay.elem, dlay.elem});
            }
          }
        }
        n.ensure_chunk(t, read_runs, write_runs);
      }
      ExecCtx ctx(st, layouts_, j);
      if (loop.body) loop.body(ctx);
      if (checks) {
        for (const auto& e : write_runs) n.note_writes(e.addr, e.len);
      }
      const double inner = inner_count(v, j);
      const sim::Time cost = static_cast<sim::Time>(
          loop.cost_per_iter_ns * inner * cost_factor);
      t.charge(cost);
      n.stats.compute_ns += cost;
    }
  }

  // Compiles this visit of `loop` into st.visit: the free bounds always,
  // and with `checks` the references whose footprints the chunks validate.
  // Replicated arrays are per-node private storage, so their references are
  // left out (an indirect read still needs its index footprint, to read the
  // index values).
  void compile_visit(const hpf::ParallelLoop& loop, NodeRun& st,
                     bool checks) {
    CompiledVisit& v = st.visit;
    hpf::compile_free(loop, st.bind, &v.free);
    v.subs.clear();
    v.reads.clear();
    v.writes.clear();
    v.ind.clear();
    if (!checks) return;
    const auto compile = [&](const std::string& array,
                             const std::vector<hpf::AffineExpr>& subs) {
      const std::size_t i = prog_.index_of(array);
      CompiledAccess a{v.subs.size(), subs.size(), layouts_.by_index[i]};
      FGDSM_ASSERT_MSG(subs.size() == a.layout->extents.size(),
                       "rank mismatch on " << array);
      hpf::compile_ref(loop, subs, st.bind, &v.subs);
      return a;
    };
    for (const auto& ref : loop.reads)
      if (!replicated(ref.array))
        v.reads.push_back(compile(ref.array, ref.subs));
    for (const auto& ref : loop.writes)
      if (!replicated(ref.array))
        v.writes.push_back(compile(ref.array, ref.subs));
    for (const auto& ir : loop.ind_reads)
      v.ind.push_back(CompiledIndirect{
          compile(ir.index_array, ir.index_subs),
          !replicated(ir.index_array),
          replicated(ir.array) ? nullptr
                               : layouts_.by_index[prog_.index_of(ir.array)],
          ir.value_offset});
  }

  bool replicated(const std::string& array) const {
    return prog_.array(array).dist == hpf::DistKind::kReplicated;
  }

  // Clears *out and fills it with the runs compiled reference `a` touches
  // in chunk j, clipped to the array.
  void chunk_runs(NodeRun& st, const CompiledAccess& a, std::int64_t j,
                  std::vector<Run>* out) {
    out->clear();
    ConcreteSection& s = st.fp_section;
    hpf::eval_ref({st.visit.subs.data() + a.first, a.rank}, st.visit.free,
                  ConcreteInterval{j, j, 1}, &s);
    const std::vector<std::int64_t>& e = a.layout->extents;
    for (std::size_t d = 0; d < s.dims.size(); ++d)
      s.dims[d] = hpf::intersect(s.dims[d], ConcreteInterval{0, e[d] - 1, 1});
    if (s.empty()) return;
    hpf::linearize_into(*a.layout, s, out);
  }

  // Inner iterations of chunk j: the product of the free trip counts.
  static double inner_count(const CompiledVisit& v, std::int64_t j) {
    double c = 1.0;
    for (const hpf::CompiledFree& f : v.free)
      c *= static_cast<double>(f.at(j).count());
    return c;
  }

  // ---- Result gathering ----

  // In shared-memory modes, a node's copy of a lost boundary block can be
  // stale even for its *owned* words; ensure_readable forces a fetch of the
  // merged data before the host composes the result from owners.
  void gather_owned(NodeRun& st) {
    for (const auto& a : prog_.arrays) {
      const ConcreteSection owned = hpf::owned_section(
          a, st.bind, cluster_.nnodes(), st.node->id());
      for (const Run& r : hpf::linearize(layouts_.by_name.at(a.name), owned))
        st.node->ensure_readable(*st.task, r.addr, r.len);
    }
  }

  void gather_into(RunResult& res) {
    for (const auto& a : prog_.arrays) {
      const hpf::ArrayLayout& lay = layouts_.by_name.at(a.name);
      std::vector<double>& out = res.arrays[a.name];
      out.assign(static_cast<std::size_t>(lay.elements()), 0.0);
      const int np = cluster_.nnodes();
      const int copies = a.dist == hpf::DistKind::kReplicated ? 1 : np;
      for (int p = 0; p < copies; ++p) {
        const ConcreteSection owned =
            hpf::owned_section(a, nodes_[static_cast<std::size_t>(p)].bind,
                               np, p);
        for (const Run& r : hpf::linearize(lay, owned)) {
          const std::size_t elem0 =
              static_cast<std::size_t>((r.addr - lay.base) / 8);
          std::memcpy(out.data() + elem0, cluster_.node(p).mem(r.addr),
                      r.len);
        }
      }
    }
  }

  const hpf::Program& prog_;
  RunConfig cfg_;
  // Declared before cluster_: the cluster-config lambda in the constructor
  // allocates the tracer and hands the cluster a raw pointer to it.
  std::unique_ptr<sim::Tracer> tracer_;
  tempest::Cluster cluster_;
  std::unique_ptr<proto::Stache> stache_;
  std::unique_ptr<mp::MpRuntime> mp_;
  std::unique_ptr<irreg::IrregRuntime> irreg_;
  Layouts layouts_;
  // After layouts_ (filled in the ctor body; the table reads it lazily).
  core::PlanTable table_{prog_, layouts_.by_name, cluster_.nnodes(),
                         cluster_.block_size(),
                         cfg_.opt.mode == Mode::kShmemOpt};
  std::vector<NodeRun> nodes_;
};

}  // namespace

RunResult run(const hpf::Program& prog, RunConfig cfg) {
  Executor ex(prog, cfg);
  return ex.execute();
}

}  // namespace fgdsm::exec
