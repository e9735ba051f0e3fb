// One cluster node: a full backing copy of the global shared segment,
// per-block fine-grain access tags, compute + protocol resources, and the
// active-message plumbing. This is the Tempest substrate a coherence
// protocol (src/proto) and the compiler-directed runtime (src/core) build on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tempest/types.h"
#include "src/util/stats.h"

namespace fgdsm::tempest {

class Cluster;
class Protocol;

class Node {
 public:
  Node(Cluster& cluster, int id);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  Cluster& cluster() { return cluster_; }

  // ---- Memory and fine-grain access control ----

  // Raw pointer into this node's backing of the shared segment. Valid after
  // the cluster finalizes allocation (Cluster::run).
  std::byte* mem(GAddr a);
  const std::byte* mem(GAddr a) const;
  // Bytes of this node's segment backing the OS has actually committed
  // (resident pages, per mincore). Scaling diagnostics; 0 if mincore fails.
  std::size_t resident_mem_bytes() const;
  template <typename T>
  T* ptr(GAddr a) {
    return reinterpret_cast<T*>(mem(a));
  }

  Access access(BlockId b) const { return tags_[b]; }
  void set_access(BlockId b, Access a) { tags_[b] = a; }

  // ---- Compiled-in access checks (task context) ----
  // The executor performs these at block granularity over each loop chunk's
  // footprint — the check itself is free (hardware-accelerated access
  // control, §5); only faults enter protocol software. Stall time is
  // recorded into stats.miss_ns.
  void ensure_readable(sim::Task& task, GAddr addr, std::size_t len);
  void ensure_writable(sim::Task& task, GAddr addr, std::size_t len);
  // Validate a whole loop chunk's footprint at once: every read range
  // non-Invalid AND every write range ReadWrite, simultaneously, in one
  // yield-free pass. This is required for correctness, not just speed: a
  // block validated early can be recalled while a later range's fault
  // stalls, and the chunk body must not store through a stale tag.
  struct Extent {
    GAddr addr;
    std::size_t len;
  };
  void ensure_chunk(sim::Task& task, const std::vector<Extent>& reads,
                    const std::vector<Extent>& writes);
  // Tell the protocol which words were stored to (needed only while an
  // eager ownership upgrade is in flight; see proto/stache).
  void note_writes(GAddr addr, std::size_t len);

  // ---- Messaging ----
  // Task context: charges the task the message-composition overhead, then
  // injects. Handler context: charges the handler clock instead.
  void send(sim::Task& task, sim::Message m);
  void send_from_handler(HandlerClock& clk, sim::Message m);
  // Delivery entry (installed as the network sink). Messages are queued in
  // an inbox and their handlers *execute* as engine events at the time the
  // protocol resource actually becomes free — not at delivery. This keeps
  // handler side effects ordered in virtual time against compute-task code
  // (a task never observes a state change whose handler starts later than
  // the task's clock). Handlers for one node run strictly serialized.
  void deliver(sim::Message&& m, sim::Time arrival);

  // ---- Synchronization (task context) ----
  void barrier(sim::Task& task);
  enum class ReduceOp { kSum, kMax, kMin };
  double allreduce(sim::Task& task, double v, ReduceOp op = ReduceOp::kSum);

  // ---- Plumbing ----
  sim::Resource& cpu_res() { return cpu_res_; }
  // The resource protocol handlers occupy: the dedicated protocol processor
  // (dual-cpu) or the compute processor itself (single-cpu).
  sim::Resource& proto_res() { return dual_cpu_ ? proto_res_ : cpu_res_; }
  sim::Task* task() { return task_; }

  Protocol* protocol = nullptr;
  util::NodeStats stats;

  // Semaphores protocol/runtime layers wait on (one waiter each: this
  // node's compute task).
  sim::Semaphore barrier_sem;
  sim::Semaphore reduce_sem;
  sim::Semaphore recv_sem;   // compiler-directed ready_to_recv (data blocks)
  sim::Semaphore drain_sem;  // outstanding-transaction drain
  double reduce_result = 0.0;

  // Internal wiring (Cluster only).
  void finalize_memory(std::size_t segment_bytes, std::size_t nblocks,
                       bool dual_cpu);
  void bind_task(sim::Task* t);

  // ---- Fail-stop crash + rollback recovery (Cluster only) ----
  // Fail-stop this node at virtual time t: the compute task halts, queued
  // and future inbound messages are dropped (deliver() turns into a sink),
  // and the node stops acking (the channel's down-probe reads crashed()).
  // Runs as an event in this node's own partition — no cross-partition
  // state is touched.
  void crash(sim::Time t);
  bool crashed() const { return crashed_; }
  // Recovery: bring a crashed node back (its state is rolled back by the
  // cluster alongside every survivor's).
  void reincarnate() { crashed_ = false; }
  void clear_inbox() { inbox_.clear(); }
  // Checkpoint cost debit: set by the barrier-root capture, charged to this
  // node's clock (plus stats) when its own barrier release arrives (the
  // first point the node's task runs after the capture). -1 = none pending.
  void set_pending_checkpoint(std::int64_t bytes) {
    pending_ckpt_bytes_ = bytes;
  }
  // Raw state access for checkpoint capture/restore.
  std::size_t mem_bytes() const { return mem_bytes_; }
  std::size_t ntags() const { return ntags_; }
  Access* tags_data() { return tags_.get(); }
  const Access* tags_data() const { return tags_.get(); }

 private:
  struct PendingMsg {
    sim::Message msg;
    sim::Time arrival;
  };
  // FIFO inbox as a power-of-two flat ring (the reliable channel's
  // retained-copy ring pattern): slot for logical index i is i & mask, and
  // steady-state push/pop touches no allocator — std::deque frees and
  // reallocates a block every few messages as the front chases the back.
  class InboxRing {
   public:
    bool empty() const { return head_ == tail_; }
    void clear() { head_ = tail_ = 0; }  // slots are overwritten on reuse
    PendingMsg& front() { return buf_[head_ & (buf_.size() - 1)]; }
    void push_back(PendingMsg&& m) {
      if (tail_ - head_ == buf_.size()) grow();
      buf_[tail_++ & (buf_.size() - 1)] = std::move(m);
    }
    PendingMsg pop_front() { return std::move(buf_[head_++ & (buf_.size() - 1)]); }

   private:
    void grow() {
      std::vector<PendingMsg> bigger(buf_.empty() ? 16 : buf_.size() * 2);
      for (std::uint64_t i = head_; i != tail_; ++i)
        bigger[(i - head_) & (bigger.size() - 1)] =
            std::move(buf_[i & (buf_.size() - 1)]);
      tail_ -= head_;
      head_ = 0;
      buf_ = std::move(bigger);
    }
    std::vector<PendingMsg> buf_;
    std::uint64_t head_ = 0;  // logical index of front
    std::uint64_t tail_ = 0;  // logical index one past back
  };
  void schedule_next_handler(sim::Time earliest);
  void execute_one_handler();

  // Zero-filled buffer mapped straight from the kernel (private, anonymous,
  // no swap reservation), so physical memory is committed only where the
  // run actually reads or writes. Every node "backs the whole segment", but
  // a 1024-node cluster must not pay 1024 eager copies of it. calloc is not
  // enough: once the process frees a large mmapped block, glibc raises its
  // mmap threshold, and later segment-sized callocs reuse freed heap
  // memory, which calloc must memset (committing every page).
  struct Unmapper {
    std::size_t bytes;  // no initializer: unique_ptr value-initializes it
    void operator()(void* p) const;
  };
  template <typename T>
  using ZeroBuf = std::unique_ptr<T[], Unmapper>;
  static void* map_zeroed(std::size_t bytes);
  template <typename T>
  static ZeroBuf<T> make_zero_buf(std::size_t n) {
    const std::size_t bytes = (n ? n : 1) * sizeof(T);
    return ZeroBuf<T>(static_cast<T*>(map_zeroed(bytes)), Unmapper{bytes});
  }

  Cluster& cluster_;
  int id_;
  bool dual_cpu_ = true;
  ZeroBuf<std::byte> mem_;   // contiguous: handlers memcpy via raw mem()
  std::size_t mem_bytes_ = 0;
  ZeroBuf<Access> tags_;     // zero == kInvalid, the non-home default
  std::size_t ntags_ = 0;
  sim::Resource cpu_res_;
  sim::Resource proto_res_;
  sim::Task* task_ = nullptr;
  InboxRing inbox_;
  // ensure_chunk's per-call sets, ascending: read blocks fetched and blocks
  // faulted so far. Cleared per call; the capacity stays with the node.
  std::vector<BlockId> fetched_;
  std::vector<BlockId> faulted_;
  bool handler_active_ = false;
  bool crashed_ = false;  // fail-stopped; written only from our partition
  std::int64_t pending_ckpt_bytes_ = -1;  // -1 = no checkpoint debit pending
};

}  // namespace fgdsm::tempest
