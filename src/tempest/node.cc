#include "src/tempest/node.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/sim/trace.h"
#include "src/tempest/cluster.h"
#include "src/tempest/protocol.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace fgdsm::tempest {

namespace {
// "tx <type>" / "h <type>" span labels, interned: the send and dispatch hot
// paths record one of these per message, and building a std::string there
// dominated allocs/event in traced runs.
const char* msg_label(sim::Tracer& tr, const char* prefix, MsgType type) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s %s", prefix, to_string(type));
  return tr.intern(buf);
}

// Adds b to an ascending vector; false if it was already there.
bool insert_sorted(std::vector<BlockId>& set, BlockId b) {
  const auto it = std::lower_bound(set.begin(), set.end(), b);
  if (it != set.end() && *it == b) return false;
  set.insert(it, b);
  return true;
}
}  // namespace

Node::Node(Cluster& cluster, int id) : cluster_(cluster), id_(id) {
  barrier_sem.set_name("barrier");
  reduce_sem.set_name("allreduce");
  recv_sem.set_name("ready_to_recv");
  drain_sem.set_name("drain");
}

void* Node::map_zeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  FGDSM_ASSERT_MSG(p != MAP_FAILED, "mmap of " << bytes
                                               << " bytes of node memory "
                                                  "failed: "
                                               << std::strerror(errno));
  return p;
}

void Node::Unmapper::operator()(void* p) const { munmap(p, bytes); }

void Node::finalize_memory(std::size_t segment_bytes, std::size_t nblocks,
                           bool dual_cpu) {
  dual_cpu_ = dual_cpu;
  mem_ = make_zero_buf<std::byte>(segment_bytes);
  mem_bytes_ = segment_bytes;
  tags_ = make_zero_buf<Access>(nblocks);
  ntags_ = nblocks;
  // Bootstrap state: the home node of a block holds it writable (its backing
  // store *is* the block's home storage); everyone else starts Invalid. The
  // directory starts Idle, matching this. Freshly mapped tags are already
  // kInvalid, so only the home-owned runs are written — one page in nnodes
  // of the tag array is ever touched here, keeping per-node startup cost
  // O(segment / nnodes) rather than O(segment).
  static_assert(static_cast<std::uint8_t>(Access::kInvalid) == 0,
                "zero-filled tags must read as kInvalid");
  const std::size_t blocks_per_page =
      cluster_.config().page_size / cluster_.config().block_size;
  const std::size_t nnodes = static_cast<std::size_t>(cluster_.nnodes());
  for (std::size_t page = static_cast<std::size_t>(id_);
       page * blocks_per_page < nblocks; page += nnodes) {
    const BlockId first = page * blocks_per_page;
    const BlockId last = std::min<BlockId>(first + blocks_per_page, nblocks);
    for (BlockId b = first; b < last; ++b) tags_[b] = Access::kReadWrite;
  }
}

void Node::bind_task(sim::Task* t) { task_ = t; }

std::byte* Node::mem(GAddr a) {
  FGDSM_DCHECK(a < mem_bytes_);
  return mem_.get() + a;
}

const std::byte* Node::mem(GAddr a) const {
  FGDSM_DCHECK(a < mem_bytes_);
  return mem_.get() + a;
}

std::size_t Node::resident_mem_bytes() const {
  if (mem_bytes_ == 0) return 0;
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(mem_.get());
  const std::uintptr_t lo = (base + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (base + mem_bytes_) & ~(page - 1);
  if (hi <= lo) return 0;
  std::vector<unsigned char> incore((hi - lo) / page);
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, incore.data()) != 0)
    return 0;
  std::size_t resident = 0;
  for (unsigned char v : incore)
    if (v & 1) resident += page;
  return resident;
}

// Both ensure_* routines loop until one *yield-free* pass over the footprint
// observes every tag in the required state. Fault handling can yield to the
// engine (miss stalls, pipelined sends), and a concurrent invalidation may
// revoke an earlier block while a later one is being fetched — or even
// revoke the very block whose upgrade was just issued, at the same virtual
// instant. The caller's subsequent stores + note_writes run with no further
// yields, so after the final clean pass the whole check/store/mark sequence
// is atomic with respect to message handlers.
void Node::ensure_readable(sim::Task& task, GAddr addr, std::size_t len) {
  if (len == 0) return;
  const BlockId first = cluster_.block_of(addr);
  const BlockId last = cluster_.block_of(addr + len - 1);
  for (;;) {
    task.sync();  // observe every message handler due by now
    BlockId faulting = 0;
    bool clean = true;
    for (BlockId b = first; b <= last; ++b) {
      if (tags_[b] == Access::kInvalid) {
        faulting = b;
        clean = false;
        break;
      }
    }
    if (clean) return;
    FGDSM_ASSERT_MSG(protocol != nullptr,
                     "read fault with no protocol installed (node "
                         << id_ << ", block " << faulting << ")");
    ++stats.read_misses;
    FGDSM_LOG("fault", "rd node=" << id_ << " blk=" << faulting << " t="
                                  << task.now());
    const sim::Time t0 = task.now();
    protocol->on_read_fault(*this, task, faulting);
    stats.miss_ns += task.now() - t0;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(id_), "miss", "rd miss", t0,
               task.now());
  }
}

void Node::ensure_writable(sim::Task& task, GAddr addr, std::size_t len) {
  if (len == 0) return;
  const BlockId first = cluster_.block_of(addr);
  const BlockId last = cluster_.block_of(addr + len - 1);
  for (;;) {
    task.sync();
    BlockId faulting = 0;
    bool clean = true;
    for (BlockId b = first; b <= last; ++b) {
      if (tags_[b] != Access::kReadWrite) {
        faulting = b;
        clean = false;
        break;
      }
    }
    if (clean) return;
    FGDSM_ASSERT_MSG(protocol != nullptr,
                     "write fault with no protocol installed (node "
                         << id_ << ", block " << faulting << ")");
    ++stats.write_misses;
    FGDSM_LOG("fault", "wr node=" << id_ << " blk=" << faulting << " tag="
                                  << static_cast<int>(tags_[faulting])
                                  << " t=" << task.now());
    const sim::Time t0 = task.now();
    protocol->on_write_fault(*this, task, faulting);
    stats.miss_ns += task.now() - t0;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(id_), "miss", "wr miss", t0,
               task.now());
  }
}

void Node::ensure_chunk(sim::Task& task, const std::vector<Extent>& reads,
                        const std::vector<Extent>& writes) {
  // Requirements, matching what per-access checks give the real platform:
  //  - WRITE blocks must all be ReadWrite in one yield-free final pass (a
  //    store through a revoked tag would bypass the dirty-word machinery
  //    and lose the update);
  //  - READ blocks only need to have been *fetched once* during this call.
  //    Invalidation flips the tag but the fetched bytes remain, and under
  //    release consistency a read concurrent with a remote write may return
  //    the older value — exactly what a per-access system does when a block
  //    is consumed and invalidated afterwards. Requiring reads to stay
  //    valid simultaneously with conflicting writes would deadlock in-place
  //    stencils (pde's red/black planes) in livelock.
  //
  // Residual write-write contention (false-sharing writers cycling through
  // fetch+upgrade) is broken by an id-proportional backoff on re-faults of
  // the same block: node 0 never waits, so the lowest-id contender wins
  // within a few rounds. (The real platform escapes through per-access
  // faults and timing jitter; the backoff is the deterministic stand-in,
  // charged as miss stall time.)
  fetched_.clear();
  faulted_.clear();
  int contention = 0;
  for (;;) {
    if (contention > 1 && id_ > 0) {
      const sim::Time backoff = static_cast<sim::Time>(contention - 1) *
                                id_ * cluster_.costs().wire_latency;
      const sim::Time t0 = task.now();
      task.charge(backoff);
      stats.miss_ns += task.now() - t0;
    }
    task.sync();
    // One pass over the whole footprint; any violation triggers a fault and
    // a full rescan (the fault handling may yield, and other blocks can be
    // revoked meanwhile).
    BlockId faulting = 0;
    int kind = 0;  // 0 = clean, 1 = read fault, 2 = write fault
    for (const Extent& e : writes) {
      if (e.len == 0) continue;
      const BlockId first = cluster_.block_of(e.addr);
      const BlockId last = cluster_.block_of(e.addr + e.len - 1);
      for (BlockId b = first; b <= last && kind == 0; ++b)
        if (tags_[b] != Access::kReadWrite) {
          faulting = b;
          kind = 2;
        }
      if (kind != 0) break;
    }
    if (kind == 0) {
      for (const Extent& e : reads) {
        if (e.len == 0) continue;
        const BlockId first = cluster_.block_of(e.addr);
        const BlockId last = cluster_.block_of(e.addr + e.len - 1);
        for (BlockId b = first; b <= last && kind == 0; ++b)
          if (tags_[b] == Access::kInvalid &&
              !std::binary_search(fetched_.begin(), fetched_.end(), b)) {
            faulting = b;
            kind = 1;
          }
        if (kind != 0) break;
      }
    }
    if (kind == 0) return;
    FGDSM_ASSERT_MSG(protocol != nullptr, "fault with no protocol installed");
    if (!insert_sorted(faulted_, faulting)) ++contention;
    FGDSM_LOG("fault", (kind == 2 ? "wr" : "rd")
                           << " node=" << id_ << " blk=" << faulting
                           << " tag=" << static_cast<int>(tags_[faulting])
                           << " contention=" << contention
                           << " t=" << task.now());
    const sim::Time t0 = task.now();
    if (kind == 2) {
      ++stats.write_misses;
      protocol->on_write_fault(*this, task, faulting);
    } else {
      ++stats.read_misses;
      protocol->on_read_fault(*this, task, faulting);
      insert_sorted(fetched_, faulting);
    }
    stats.miss_ns += task.now() - t0;
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(id_), "miss",
               kind == 2 ? "wr miss" : "rd miss", t0, task.now());
  }
}

void Node::note_writes(GAddr addr, std::size_t len) {
  if (protocol != nullptr) protocol->note_writes(*this, addr, len);
}

void Node::send(sim::Task& task, sim::Message m) {
  m.src = id_;
  task.charge(cluster_.costs().msg_send_overhead);
  ++stats.messages_sent;
  stats.bytes_sent += static_cast<std::uint64_t>(
      m.size_bytes(cluster_.costs().msg_header_bytes));
  if (auto* tr = cluster_.tracer()) {
    m.trace_id = tr->flow_begin(
        sim::Tracer::compute_track(id_), "msg",
        msg_label(*tr, "tx", static_cast<MsgType>(m.type)),
        task.now() - cluster_.costs().msg_send_overhead, task.now());
  }
  cluster_.transmit(task.now(), std::move(m));
}

void Node::send_from_handler(HandlerClock& clk, sim::Message m) {
  m.src = id_;
  clk.charge(cluster_.costs().msg_send_overhead);
  ++stats.messages_sent;
  stats.bytes_sent += static_cast<std::uint64_t>(
      m.size_bytes(cluster_.costs().msg_header_bytes));
  if (auto* tr = cluster_.tracer()) {
    m.trace_id = tr->flow_begin(
        sim::Tracer::protocol_track(id_), "msg",
        msg_label(*tr, "tx", static_cast<MsgType>(m.type)),
        clk.t - cluster_.costs().msg_send_overhead, clk.t);
  }
  cluster_.transmit(clk.t, std::move(m));
}

void Node::deliver(sim::Message&& m, sim::Time arrival) {
  if (crashed_) return;  // a fail-stopped node absorbs traffic silently
  inbox_.push_back(PendingMsg{std::move(m), arrival});
  if (!handler_active_) schedule_next_handler(arrival);
}

void Node::crash(sim::Time t) {
  FGDSM_ASSERT_MSG(!crashed_, "node " << id_ << " crashed twice");
  crashed_ = true;
  ++stats.crashes;
  inbox_.clear();
  if (task_ != nullptr) task_->halt();
  FGDSM_LOG("crash", "node " << id_ << " fail-stop at t=" << t);
  if (auto* tr = cluster_.tracer())
    tr->span(sim::Tracer::compute_track(id_), "crash", "crash", t, t);
}

void Node::schedule_next_handler(sim::Time earliest) {
  handler_active_ = true;
  const sim::Time avail = proto_res().available();
  cluster_.engine().schedule(avail > earliest ? avail : earliest,
                             [this] { execute_one_handler(); });
}

void Node::execute_one_handler() {
  if (inbox_.empty()) {
    // A crash or rollback cleared the inbox under an already-scheduled
    // handler event (or a pre-rollback event outlived the timeline that
    // scheduled it). Resetting the flag re-arms scheduling for the next
    // delivery; if a fresher delivery already chained onto the stale event,
    // FIFO order is preserved either way.
    handler_active_ = false;
    return;
  }
  PendingMsg pm = inbox_.pop_front();
  // The protocol resource may have moved on (single-cpu: computation shares
  // it); acquire() starts the handler no earlier than now and no earlier
  // than the resource frees up.
  HandlerClock clk{proto_res().acquire(cluster_.engine().now(),
                                       cluster_.costs().msg_dispatch_overhead)};
  const sim::Time h_start = clk.t;
  const Cluster::Handler& h =
      cluster_.handler(static_cast<MsgType>(pm.msg.type));
  h(*this, pm.msg, clk);
  proto_res().set_available(clk.t);
  // The handler consumed the message; hand its payload buffer back so the
  // sender's next block/chunk reuses it instead of allocating.
  cluster_.recycle_payload(pm.msg.src, std::move(pm.msg.payload));
  if (auto* tr = cluster_.tracer()) {
    const char* name =
        msg_label(*tr, "h", static_cast<MsgType>(pm.msg.type));
    if (pm.msg.trace_id != 0)
      tr->flow_end(pm.msg.trace_id, sim::Tracer::protocol_track(id_), "msg",
                   name, h_start, clk.t);
    else
      tr->span(sim::Tracer::protocol_track(id_), "msg", name, h_start, clk.t);
  }
  if (!inbox_.empty())
    schedule_next_handler(inbox_.front().arrival > clk.t
                              ? inbox_.front().arrival
                              : clk.t);
  else
    handler_active_ = false;
}

void Node::barrier(sim::Task& task) {
  const sim::Time t0 = task.now();
  ++stats.barriers;
  if (protocol != nullptr) protocol->drain(*this, task);
  task.charge(cluster_.costs().barrier_local_cost);
  if (cluster_.nnodes() > 1) {
    cluster_.barrier_arrive(*this, task);
    barrier_sem.wait(task);
    // The coherence check itself happens at the barrier's completion point
    // (the last arrival at the root — see Cluster), not here: by the time a
    // release reaches this node, earlier-released nodes may already be
    // issuing new requests.
  } else if (cluster_.config().check_coherence && protocol != nullptr) {
    // Single node: drained means quiescent.
    protocol->check_invariants(*this);
  }
  stats.sync_ns += task.now() - t0;
  if (auto* tr = cluster_.tracer())
    tr->span(sim::Tracer::compute_track(id_), "sync", "barrier", t0,
             task.now());
  if (pending_ckpt_bytes_ >= 0) {
    // The barrier-root capture ran at this barrier's completion point and
    // left our byte count; pay the serialization cost on our own clock, at
    // the first instant we run after the capture. (The capture itself did
    // the counting.)
    const std::int64_t bytes = pending_ckpt_bytes_;
    pending_ckpt_bytes_ = -1;
    const sim::Time c0 = task.now();
    task.charge(cluster_.costs().ckpt_base_ns +
                static_cast<sim::Time>(static_cast<double>(bytes) *
                                       cluster_.costs().ckpt_ns_per_byte));
    if (auto* tr = cluster_.tracer())
      tr->span(sim::Tracer::compute_track(id_), "ckpt", "checkpoint", c0,
               task.now());
  }
}

double Node::allreduce(sim::Task& task, double v, ReduceOp op) {
  const sim::Time t0 = task.now();
  ++stats.reductions;
  if (protocol != nullptr) protocol->drain(*this, task);
  task.charge(cluster_.costs().barrier_local_cost);
  if (cluster_.nnodes() == 1) {
    stats.sync_ns += task.now() - t0;
    return v;
  }
  cluster_.reduce_arrive(*this, task, v, op);
  reduce_sem.wait(task);
  stats.sync_ns += task.now() - t0;
  if (auto* tr = cluster_.tracer())
    tr->span(sim::Tracer::compute_track(id_), "sync", "allreduce", t0,
             task.now());
  return reduce_result;
}

}  // namespace fgdsm::tempest
