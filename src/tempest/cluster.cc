#include "src/tempest/cluster.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "src/sim/trace.h"
#include "src/tempest/protocol.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace fgdsm::tempest {

namespace {
std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      pools_(engine_, cfg.nnodes),
      net_(engine_, cfg_.costs, cfg.nnodes) {
  cfg_.validate();
  block_shift_ = std::countr_zero(cfg_.block_size);
  // One event partition per node, ALWAYS — regardless of sim_threads — so
  // window boundaries, sequence numbers, and merge order are identical at
  // any thread count (the bit-identity contract). The worker count only
  // changes which host thread drains a partition.
  engine_.set_partitions(cfg_.nnodes);
  engine_.set_window_lookahead(net_.min_link_latency());
  // The tracer appends flow spans in drain order; keep that order
  // deterministic by draining single-threaded when tracing. Results are
  // unchanged (thread count never affects them).
  engine_.set_sim_threads(cfg_.tracer != nullptr ? 1 : cfg_.sim_threads);
  if (cfg_.faults.enabled) {
    // Chaos mode: deterministic faults on the wire, reliable channel under
    // every node. Defaults derive from the cost model so the knobs scale
    // with the platform: delay window 8x wire latency, base RTO 20x (well
    // past a round trip plus handler occupancy), pure acks at RTO/4.
    fault_ = std::make_unique<sim::FaultInjector>(
        cfg_.faults, cfg_.nnodes, 8 * cfg_.costs.wire_latency);
    net_.set_fault_injector(fault_.get());
    sim::ChannelConfig ch;
    ch.rto_ns = cfg_.faults.rto_ns > 0 ? cfg_.faults.rto_ns
                                       : 20 * cfg_.costs.wire_latency;
    ch.ack_delay_ns = std::max<sim::Time>(1, ch.rto_ns / 4);
    ch.max_retries = cfg_.faults.max_retries;
    ch.ack_type = static_cast<std::uint16_t>(MsgType::kChannelAck);
    channel_ = std::make_unique<sim::ReliableChannel>(engine_, net_,
                                                      cfg_.nnodes, ch);
    channel_->set_type_namer([](std::uint16_t t) {
      return to_string(static_cast<MsgType>(t));
    });
  }
  std::vector<util::NodeStats*> stat_sinks;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(*this, i));
    Node* n = nodes_.back().get();
    stat_sinks.push_back(&n->stats);
    auto sink = [this, n](sim::Message&& m, sim::Time arrival) {
      // Timeline filter: a message stamped by a pre-rollback epoch is dead
      // traffic from an abandoned timeline. This matters for loopback
      // self-sends, which bypass the channel's duplicate suppression.
      // Outside crash runs the stamp and the counter are both 0.
      if (m.epoch != recovery_epoch_) return;
      n->deliver(std::move(m), arrival);
    };
    if (channel_ != nullptr)
      channel_->attach(i, std::move(sink));
    else
      net_.attach(i, std::move(sink));
  }
  if (fault_ != nullptr) fault_->set_stats(stat_sinks);
  if (channel_ != nullptr) channel_->set_stats(std::move(stat_sinks));
  if (fault_ != nullptr && cfg_.faults.has_crashes() && cfg_.nnodes > 1) {
    // Fail-stop mode: stamp outbound traffic with the recovery epoch, let
    // the channel observe fail-stopped endpoints (a down node stops acking
    // — the detection signal), and install the rollback hook the engine
    // calls when the cluster stops making progress.
    net_.set_epoch_stamp(&recovery_epoch_);
    channel_->set_down_probe([this](int node) {
      return nodes_[static_cast<std::size_t>(node)]->crashed();
    });
    engine_.set_recovery_hook([this] { return recover(); });
  }
  // At every window barrier, the payload drops other partitions deferred
  // are applied, and a capture requested inside the window runs.
  if (cfg_.nnodes > 1)
    engine_.set_window_hook([this] {
      pools_.settle();
      if (!ckpt_request_) return;
      ckpt_request_ = false;
      capture_checkpoint(ckpt_request_t_, /*at_barrier=*/true);
    });
  // Lookahead: a lower bound on how quickly one node's compute task can
  // affect another node — composing a message plus the wire latency.
  engine_.set_lookahead(cfg_.costs.msg_send_overhead +
                        cfg_.costs.wire_latency);
  engine_.set_watchdog(cfg_.watchdog_ns);
  engine_.set_stall_reporter([this] {
    std::string out;
    if (channel_ != nullptr) out += channel_->describe_state();
    for (const auto& n : nodes_) {
      if (n->protocol == nullptr) continue;
      for (const std::string& v : n->protocol->find_violations())
        out += "  node " + std::to_string(n->id()) + ": " + v + "\n";
      break;  // protocols share global state; one node's view suffices
    }
    return out;
  });
  register_builtin_handlers();
}

Cluster::~Cluster() = default;

GAddr Cluster::allocate(const std::string& name, std::size_t bytes) {
  FGDSM_ASSERT_MSG(!ran_, "allocate after run (" << name << ")");
  const GAddr addr = round_up(segment_bytes_, cfg_.page_size);
  segment_bytes_ = addr + round_up(bytes, cfg_.page_size);
  return addr;
}

std::size_t Cluster::num_blocks() const {
  return (segment_bytes_ + cfg_.block_size - 1) / cfg_.block_size;
}

void Cluster::register_handler(MsgType t, Handler h) {
  handlers_[static_cast<std::size_t>(t)] = std::move(h);
}

const Cluster::Handler& Cluster::handler(MsgType t) const {
  const Handler& h = handlers_[static_cast<std::size_t>(t)];
  FGDSM_ASSERT_MSG(h, "no handler registered for message type "
                          << static_cast<int>(t));
  return h;
}

int Cluster::resolve_group(int nnodes, int group) {
  if (group > 0) return group;
  int g = 1;
  while (g * g < nnodes) ++g;  // ceil(sqrt(n)) balances the two levels
  return g;
}

int Cluster::collective_root(Collectives topo, int nnodes) {
  return topo == Collectives::kFlat ? nnodes : 0;
}

int Cluster::collective_parent(Collectives topo, int vertex, int nnodes,
                               int group) {
  FGDSM_ASSERT(vertex >= 0 && vertex < nnodes &&
               vertex != collective_root(topo, nnodes));
  switch (topo) {
    case Collectives::kFlat:
      return nnodes;
    case Collectives::kBinary:
      return (vertex - 1) / 2;
    case Collectives::kBinomial:
      return vertex & (vertex - 1);  // clear the lowest set bit
    case Collectives::kTwoLevel: {
      const int g = resolve_group(nnodes, group);
      const int leader = vertex / g * g;
      return vertex == leader ? 0 : leader;
    }
  }
  return 0;
}

std::vector<int> Cluster::collective_children(Collectives topo, int vertex,
                                              int nnodes, int group) {
  // Children are always produced in ascending order: the fan-out loops send
  // in list order, and ascending order is part of the bit-identity contract
  // (it matches the historical linear and binary fan-outs).
  std::vector<int> out;
  switch (topo) {
    case Collectives::kFlat:
      if (vertex == nnodes)
        for (int i = 0; i < nnodes; ++i) out.push_back(i);
      break;
    case Collectives::kBinary:
      if (2 * vertex + 1 < nnodes) out.push_back(2 * vertex + 1);
      if (2 * vertex + 2 < nnodes) out.push_back(2 * vertex + 2);
      break;
    case Collectives::kBinomial: {
      // Vertex i's children are i | (1<<k) for each bit k below i's lowest
      // set bit (all powers of two for the root). Ascending in k.
      const int low = vertex == 0 ? nnodes : vertex & -vertex;
      for (int bit = 1; bit < low; bit <<= 1) {
        const int c = vertex | bit;
        if (c >= nnodes) break;  // children only grow with k
        out.push_back(c);
      }
      break;
    }
    case Collectives::kTwoLevel: {
      const int g = resolve_group(nnodes, group);
      if (vertex % g == 0) {
        // Leader: the members of its group...
        for (int c = vertex + 1; c < std::min(vertex + g, nnodes); ++c)
          out.push_back(c);
        // ...and, for the root, every other leader. Members of group 0 all
        // precede the first leader, so the list stays ascending.
        if (vertex == 0)
          for (int c = g; c < nnodes; c += g) out.push_back(c);
      }
      break;
    }
  }
  return out;
}

int Cluster::collective_depth(Collectives topo, int nnodes, int group) {
  if (nnodes <= 1) return 0;
  switch (topo) {
    case Collectives::kFlat:
      return 1;
    case Collectives::kBinary: {
      int d = 0;
      for (int span = 1; span < nnodes; span = 2 * span + 1) ++d;
      return d;
    }
    case Collectives::kBinomial: {
      // Vertex i sits popcount(i) hops below the root.
      int d = 0;
      for (int i = 1; i < nnodes; ++i)
        d = std::max(d, std::popcount(static_cast<unsigned>(i)));
      return d;
    }
    case Collectives::kTwoLevel:
      return resolve_group(nnodes, group) >= nnodes ? 1 : 2;
  }
  return 1;
}

namespace {
double reduce_combine(int op, double a, double b) {
  switch (static_cast<Node::ReduceOp>(op)) {
    case Node::ReduceOp::kSum: return a + b;
    case Node::ReduceOp::kMax: return std::max(a, b);
    case Node::ReduceOp::kMin: return std::min(a, b);
  }
  return a;
}

// Who pays for a collective message: node n's task, or its handler.
std::function<void(sim::Message)> from_task(Node& n, sim::Task& task) {
  return [&n, &task](sim::Message m) { n.send(task, std::move(m)); };
}

std::function<void(sim::Message)> from_handler(Node& n, HandlerClock& clk) {
  return [&n, &clk](sim::Message m) { n.send_from_handler(clk, std::move(m)); };
}
}  // namespace

void Cluster::barrier_arrive(Node& n, sim::Task& task) {
  vertex(n.id()).barrier.self = true;
  barrier_step(n.id(), task.now(), from_task(n, task));
}

void Cluster::reduce_arrive(Node& n, sim::Task& task, double v,
                            Node::ReduceOp op) {
  Vertex& x = vertex(n.id());
  note_op(x, static_cast<int>(op));
  x.own = v;
  x.reduce.self = true;
  reduce_step(n.id(), task.now(), from_task(n, task));
}

// Records child m.src's arrival (kBarrierArrive or kReduceUp) at the vertex
// `node` collects for, and returns that vertex. A misrouted message, or one
// more arrival than the vertex has children, fails loudly.
int Cluster::child_arrival(int node, const sim::Message& m) {
  const int v = collector(node);
  Vertex& x = vertex(v);
  const MsgType type = static_cast<MsgType>(m.type);
  FGDSM_ASSERT_MSG(vertex(m.src).parent == v,
                   to_string(type) << " from a non-child node " << m.src);
  Round& r = type == MsgType::kReduceUp ? x.reduce : x.barrier;
  FGDSM_ASSERT_MSG(r.heard < static_cast<int>(x.children.size()),
                   to_string(type)
                       << " at a vertex that has heard from all its children");
  ++r.heard;
  return v;
}

// True once vertex v has its own arrival (participants only) and every
// child's; the round then starts over for the next collective.
bool Cluster::complete_round(int v, Round& r) {
  if ((participant(v) && !r.self) ||
      r.heard != static_cast<int>(vertex(v).children.size()))
    return false;
  r = Round{};
  return true;
}

void Cluster::note_op(Vertex& x, int op) {
  FGDSM_ASSERT_MSG(x.op < 0 || x.op == op,
                   "mismatched reduction ops across nodes");
  x.op = op;
}

void Cluster::fan_out(int v, MsgType type, std::int64_t arg,
                      const SendFn& send) {
  for (int c : vertex(v).children) {
    sim::Message m;
    m.dst = c;  // children are always participants
    m.type = static_cast<std::uint16_t>(type);
    m.arg[0] = arg;
    send(std::move(m));
  }
}

void Cluster::barrier_step(int v, sim::Time t, const SendFn& send) {
  Vertex& x = vertex(v);
  if (!complete_round(v, x.barrier)) return;
  if (v != root_) {
    sim::Message up;
    up.dst = host(x.parent);
    up.type = static_cast<std::uint16_t>(MsgType::kBarrierArrive);
    send(std::move(up));
    return;
  }
  // Root: the barrier is complete and nothing is released yet. Every node
  // has drained its transactions and is blocked waiting for release — the
  // one globally quiescent, race-free point where the protocol's
  // invariants can be checked.
  Node& root_host = *nodes_[0];
  if (cfg_.check_coherence && root_host.protocol != nullptr)
    root_host.protocol->check_invariants(root_host);
  if (on_barrier_complete(t)) return;  // releases deferred past the capture
  fan_out(v, MsgType::kBarrierRelease, 0, send);
  if (participant(v)) root_host.barrier_sem.post(t);
}

void Cluster::reduce_step(int v, sim::Time t, const SendFn& send) {
  Vertex& x = vertex(v);
  if (!complete_round(v, x.reduce)) return;
  const int op = x.op;
  x.op = -1;
  // Fold in a fixed order — own value first (participants), then children
  // ascending — so the subtree's floating-point result is independent of
  // arrival order (chaos delays reorder kReduceUp messages; results must
  // not move).
  std::size_t k = 0;
  double acc = participant(v) ? x.own : x.contrib[k++];
  for (; k < x.contrib.size(); ++k)
    acc = reduce_combine(op, acc, x.contrib[k]);
  if (v != root_) {
    sim::Message up;
    up.dst = host(x.parent);
    up.type = static_cast<std::uint16_t>(MsgType::kReduceUp);
    up.arg[0] = std::bit_cast<std::int64_t>(acc);
    up.arg[1] = op;
    send(std::move(up));
    return;
  }
  fan_out(v, MsgType::kReduceDown, std::bit_cast<std::int64_t>(acc), send);
  if (participant(v)) {
    Node& root_host = *nodes_[0];
    root_host.reduce_result = acc;
    root_host.reduce_sem.post(t);
  }
}

void Cluster::register_builtin_handlers() {
  // Build the configured tree once; the steps and handlers are
  // topology-agnostic walks over it. Parents and slots come from the child
  // lists, so a star of any size costs O(nodes).
  root_ = collective_root(cfg_.collectives, cfg_.nnodes);
  vertices_.resize(static_cast<std::size_t>(std::max(root_ + 1, cfg_.nnodes)));
  for (int v = 0; v < static_cast<int>(vertices_.size()); ++v) {
    Vertex& x = vertex(v);
    x.children = collective_children(cfg_.collectives, v, cfg_.nnodes,
                                     cfg_.collective_group);
    x.contrib.assign(x.children.size(), 0.0);
    for (std::size_t k = 0; k < x.children.size(); ++k) {
      vertex(x.children[k]).parent = v;
      vertex(x.children[k]).slot = static_cast<int>(k);
    }
  }

  // One handler per collective message type, for every topology. Up
  // messages land at the vertex their host collects for; releases and
  // results travel to participants, which forward them to their children
  // before releasing their own task.
  register_handler(MsgType::kBarrierArrive,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     barrier_step(child_arrival(self.id(), m), clk.t,
                                  from_handler(self, clk));
                   });
  register_handler(MsgType::kBarrierRelease,
                   [this](Node& self, sim::Message&, HandlerClock& clk) {
                     fan_out(self.id(), MsgType::kBarrierRelease, 0,
                             from_handler(self, clk));
                     self.barrier_sem.post(clk.t);
                   });
  register_handler(MsgType::kReduceUp,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     const int v = child_arrival(self.id(), m);
                     Vertex& x = vertex(v);
                     note_op(x, static_cast<int>(m.arg[1]));
                     x.contrib[static_cast<std::size_t>(vertex(m.src).slot)] =
                         std::bit_cast<double>(m.arg[0]);
                     reduce_step(v, clk.t, from_handler(self, clk));
                   });
  register_handler(MsgType::kReduceDown,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     fan_out(self.id(), MsgType::kReduceDown, m.arg[0],
                             from_handler(self, clk));
                     self.reduce_result = std::bit_cast<double>(m.arg[0]);
                     self.reduce_sem.post(clk.t);
                   });
}

// ---- Fail-stop crashes + checkpoint/rollback recovery ----

bool Cluster::on_barrier_complete(sim::Time t) {
  if (cfg_.nnodes <= 1) return false;
  ++barrier_epoch_;
  if (fault_ != nullptr && cfg_.faults.crashp > 0.0) {
    // Per-(seed, node, epoch) counter-mode draws: the verdicts are fixed by
    // the configuration, identical at any --jobs/--sim-threads. The crash
    // lands one window out so the event clears the merge horizon when it
    // crosses partitions.
    for (int i = 0; i < cfg_.nnodes; ++i) {
      if (!fault_->crash_at_barrier(i, barrier_epoch_)) continue;
      Node* np = nodes_[static_cast<std::size_t>(i)].get();
      const sim::Time tc = t + engine_.window_lookahead();
      engine_.schedule_node(i, tc, [np, tc] {
        if (!np->crashed()) np->crash(tc);
      });
    }
  }
  if (cfg_.checkpoint_every <= 0 ||
      barrier_epoch_ % static_cast<std::uint64_t>(cfg_.checkpoint_every) != 0)
    return false;
  // Checkpoint epoch: request the capture — it runs at the engine's window
  // barrier, the only point where every task fiber is host-quiescent (this
  // code runs inside one partition's drain; a late arriver's fiber may
  // still be executing on another worker) — and hold the release fan-out
  // until the window after it, so no node moves past the barrier before
  // the capture sees it. The replayed fan-out is epoch-guarded: should a
  // rollback intervene, the stale release must not fire.
  ckpt_request_ = true;
  ckpt_request_t_ = t;
  const sim::Time tr = t + engine_.window_lookahead();
  engine_.schedule_node(0, tr, [this, tr, e = recovery_epoch_] {
    if (e == recovery_epoch_) finish_barrier_release(tr);
  });
  return true;
}

void Cluster::finish_barrier_release(sim::Time t) {
  Node& host = *nodes_[0];  // the root's host
  // A root host that crashed in the deferral window sends nothing; the
  // parked survivors stop the clock, and the engine's drained-queue path
  // hands control to the recovery hook.
  if (host.crashed()) return;
  HandlerClock clk{host.proto_res().acquire(t, 0)};
  fan_out(root_, MsgType::kBarrierRelease, 0, from_handler(host, clk));
  if (participant(root_)) host.barrier_sem.post(clk.t);
  host.proto_res().set_available(clk.t);
}

void Cluster::capture_always(GAddr base, std::size_t bytes) {
  if (bytes == 0) return;
  capture_always_ranges_.emplace_back(base, bytes);
  capture_always_blocks_.clear();  // rebuilt at the next capture
}

void Cluster::capture_checkpoint(sim::Time t, bool at_barrier) {
  const std::size_t bs = cfg_.block_size;
  const std::size_t nb = num_blocks();
  if (capture_always_blocks_.size() != nb) {
    capture_always_blocks_.assign(nb, 0);
    for (const auto& [base, bytes] : capture_always_ranges_) {
      const BlockId last = block_of(base + bytes - 1);
      for (BlockId b = block_of(base); b <= last && b < nb; ++b)
        capture_always_blocks_[b] = 1;
    }
  }
  ckpt_.t = t;
  ckpt_.nodes.resize(static_cast<std::size_t>(cfg_.nnodes));
  const std::size_t blocks_per_page = cfg_.page_size / bs;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node& n = *nodes_[static_cast<std::size_t>(i)];
    NodeCheckpoint& c = ckpt_.nodes[static_cast<std::size_t>(i)];
    c.tags.assign(n.tags_data(), n.tags_data() + n.ntags());
    // Memory: only blocks this node can legitimately read, or homes (their
    // backing is the directory's ground truth even while invalid locally),
    // plus capture-always ranges — storage outside the protocol's view.
    // Everything else re-faults through the protocol after rollback. Homes
    // are assigned by page, so each page is decided once.
    c.runs.clear();
    std::size_t nblocks = 0;
    const auto take = [&](BlockId first, BlockId end) {
      if (!c.runs.empty() && c.runs.back().end == first)
        c.runs.back().end = end;
      else
        c.runs.push_back(BlockRun{first, end});
      nblocks += end - first;
    };
    for (BlockId first = 0; first < nb; first += blocks_per_page) {
      const BlockId end = std::min<BlockId>(first + blocks_per_page, nb);
      if (home_of(first) == i) {
        take(first, end);
        continue;
      }
      for (BlockId b = first; b < end; ++b)
        if (c.tags[b] != Access::kInvalid || capture_always_blocks_[b] != 0)
          take(b, b + 1);
    }
    c.data.resize(nblocks * bs);
    std::byte* out = c.data.data();
    for (const BlockRun& r : c.runs) {
      const std::size_t len = (r.end - r.first) * bs;
      std::memcpy(out, n.mem(block_addr(r.first)), len);
      out += len;
    }
    // A rollback to a barrier capture restarts each node by finishing the
    // barrier, so each must be parked in it (one that crashed after
    // arriving still is).
    const char* why = n.task()->wait_reason();
    FGDSM_ASSERT_MSG(!at_barrier || n.barrier_sem.waiter() == n.task(),
                     "barrier checkpoint: node "
                         << i << " waits on "
                         << (why != nullptr ? why : "nothing"));
    c.barrier_t0 = n.barrier_t0;
    FGDSM_ASSERT_MSG(n.barrier_sem.count() == 0 && n.reduce_sem.count() == 0,
                     "checkpoint with undrained collectives at node "
                         << i << ": barrier semaphore count "
                         << n.barrier_sem.count()
                         << ", allreduce semaphore count "
                         << n.reduce_sem.count());
    for (const HostStateHook& h : host_hooks_) h.capture(i);
    // Charged: the node's captured blocks and tags.
    c.bytes = static_cast<std::int64_t>(c.data.size() +
                                        c.tags.size() * sizeof(Access));
    n.stats.checkpoints += 1;
    n.stats.checkpoint_bytes += static_cast<std::uint64_t>(c.bytes);
    // The serialization charge lands when this node's release arrives —
    // the first point its task runs after the capture. (The initial t=0
    // capture is free: it models the job's pristine on-disk image.)
    if (at_barrier) n.set_pending_checkpoint(c.bytes);
  }
  ckpt_.valid = true;
  FGDSM_LOG("ckpt", "checkpoint @" << t << " barrier_epoch="
                                   << barrier_epoch_);
}

bool Cluster::recover() {
  int dead = -1;
  for (int i = 0; i < cfg_.nnodes; ++i)
    if (nodes_[static_cast<std::size_t>(i)]->crashed()) {
      dead = i;
      break;
    }
  if (dead < 0) return false;  // a genuine stall/deadlock, not a crash
  if (!ckpt_.valid) {
    std::ostringstream os;
    os << "node " << dead
       << " crashed with no checkpoint to roll back to "
          "(run with --checkpoint-every=K to enable recovery)\n"
       << engine_.describe_blocked_tasks();
    throw sim::CrashError(os.str());
  }
  // Coordinated rollback-restart. Resume strictly after every partition's
  // committed time (events must not land in the past), plus the fixed
  // coordination cost of the restart itself.
  const sim::Time t_rec = engine_.max_partition_now() + cfg_.costs.ckpt_base_ns;
  // Destroy every node's abandoned frames, freeing what they own; each
  // task then restarts its body below.
  for (const auto& n : nodes_) n->task()->unwind();
  ++recovery_epoch_;  // everything stamped before this instant is now dead
  if (channel_ != nullptr) channel_->reset_for_recovery();
  const std::size_t bs = cfg_.block_size;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node& n = *nodes_[static_cast<std::size_t>(i)];
    const NodeCheckpoint& c = ckpt_.nodes[static_cast<std::size_t>(i)];
    n.reincarnate();
    n.clear_inbox();  // survivors too: queued handlers are dead-timeline work
    std::copy(c.tags.begin(), c.tags.end(), n.tags_data());
    const std::byte* in = c.data.data();
    for (const BlockRun& r : c.runs) {
      const std::size_t len = (r.end - r.first) * bs;
      std::memcpy(n.mem(block_addr(r.first)), in, len);
      in += len;
    }
    n.barrier_t0 = c.barrier_t0;
    n.barrier_sem.restore_for_recovery(0);
    n.reduce_sem.restore_for_recovery(0);
    for (const HostStateHook& h : host_hooks_) h.restore(i);
    n.set_pending_checkpoint(-1);
    n.task()->restart(t_rec);
    // Stats deliberately NOT rolled back: re-executed work is real simulated
    // work, and the bit-identity gate covers results, not effort counters.
    n.stats.recoveries += 1;
    n.stats.rollback_ns += static_cast<std::int64_t>(t_rec - ckpt_.t);
  }
  // Collective rounds restart from scratch; partial arrivals belong to the
  // abandoned timeline.
  for (Vertex& x : vertices_) {
    x.barrier = Round{};
    x.reduce = Round{};
    x.op = -1;
  }
  ckpt_request_ = false;  // any capture requested on the dead timeline
  if (sim::Tracer* tr = cfg_.tracer)
    tr->span(sim::Tracer::compute_track(dead), "recovery", "rollback",
             ckpt_.t, t_rec);
  FGDSM_LOG("ckpt", "rollback: node " << dead << " crashed; restored @"
                                      << ckpt_.t << ", resuming @" << t_rec);
  return true;
}

util::RunStats Cluster::run(
    const std::function<void(Node&, sim::Task&)>& program) {
  FGDSM_ASSERT_MSG(!ran_, "Cluster::run is one-shot");
  ran_ = true;
  const std::size_t seg = std::max<std::size_t>(segment_bytes_, cfg_.page_size);
  for (auto& n : nodes_)
    n->finalize_memory(seg, num_blocks(), cfg_.dual_cpu);

  if (sim::Tracer* tr = cfg_.tracer) {
    for (int i = 0; i < cfg_.nnodes; ++i) {
      tr->set_track_name(sim::Tracer::compute_track(i),
                         "node " + std::to_string(i) + " compute");
      tr->set_track_name(sim::Tracer::protocol_track(i),
                         "node " + std::to_string(i) + " protocol");
    }
  }

  tasks_.reserve(nodes_.size());
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node* n = nodes_[static_cast<std::size_t>(i)].get();
    tasks_.push_back(std::make_unique<sim::Task>(
        engine_, "node" + std::to_string(i),
        [n, &program](sim::Task& t) { program(*n, t); }));
    sim::Task* t = tasks_.back().get();
    t->set_partition(i);  // node i's compute task lives in partition i
    t->set_cpu(&n->cpu_res());
    t->set_node_id(i);
    t->set_steal_counter(&n->stats.handler_steal_ns);
    n->bind_task(t);
    t->start(0);
  }
  // Explicit fail-stop schedules (--faults=crash=N@T). Single-node runs
  // have no peers to detect or recover a crash, so injection is skipped
  // there (as is the recovery hook); out-of-range nodes are tolerated so
  // one fault spec can serve several cluster sizes.
  if (fault_ != nullptr && cfg_.nnodes > 1) {
    for (const std::pair<int, sim::Time>& cr : cfg_.faults.crashes) {
      const int nd = cr.first;
      if (nd < 0 || nd >= cfg_.nnodes) continue;
      Node* np = nodes_[static_cast<std::size_t>(nd)].get();
      const sim::Time tc = cr.second;
      engine_.schedule_node(nd, tc, [np, tc] {
        if (!np->crashed()) np->crash(tc);
      });
    }
  }
  // Initial checkpoint: a crash before the first checkpointed barrier must
  // still be recoverable. Capture the pristine post-layout state at t=0,
  // before any task is activated: a rollback to it runs every body from
  // its start.
  if (cfg_.checkpoint_every > 0 && cfg_.nnodes > 1)
    capture_checkpoint(0, /*at_barrier=*/false);
  engine_.run();

  util::RunStats rs(cfg_.nnodes);
  rs.elapsed_ns = 0;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    rs.node[static_cast<std::size_t>(i)] = nodes_[static_cast<std::size_t>(i)]->stats;
    rs.elapsed_ns = std::max(rs.elapsed_ns, tasks_[static_cast<std::size_t>(i)]->now());
    nodes_[static_cast<std::size_t>(i)]->bind_task(nullptr);
  }
  return rs;
}

}  // namespace fgdsm::tempest
