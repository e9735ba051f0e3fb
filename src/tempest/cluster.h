// The simulated cluster: engine + network + nodes + the global shared
// segment layout, plus the handler dispatch table and the collective tree
// that barriers and reductions run over.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/tempest/config.h"
#include "src/tempest/node.h"
#include "src/tempest/types.h"
#include "src/util/assert.h"
#include "src/util/stats.h"

namespace fgdsm::tempest {

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  // ---- Segment layout (before run) ----
  // Allocate a named region of the global shared segment; the returned
  // address is page-aligned so arrays start on block boundaries.
  GAddr allocate(const std::string& name, std::size_t bytes);
  std::size_t segment_bytes() const { return segment_bytes_; }
  // Mark an address range capture-always: its blocks join every node's
  // checkpoint regardless of tag state. Storage that bypasses access
  // control (replicated arrays, the MP backend's private copies) keeps live
  // data in blocks whose tags never leave the bootstrap state, so the
  // tag-predicated capture cannot see it — and a rollback that skips those
  // blocks leaves abandoned-timeline writes in the surviving replicas.
  void capture_always(GAddr base, std::size_t bytes);

  // ---- Geometry ----
  int nnodes() const { return cfg_.nnodes; }
  std::size_t block_size() const { return cfg_.block_size; }
  std::size_t words_per_block() const { return cfg_.block_size / 8; }
  BlockId block_of(GAddr a) const { return a / cfg_.block_size; }
  GAddr block_addr(BlockId b) const { return b * cfg_.block_size; }
  std::size_t num_blocks() const;
  // Home node: pages are assigned round-robin, as in a system that maps the
  // shared segment across the cluster (owner in the HPF sense is usually a
  // different node — the paper leans on this distinction in §4.2).
  int home_of(BlockId b) const {
    return static_cast<int>((block_addr(b) / cfg_.page_size) %
                            static_cast<std::size_t>(cfg_.nnodes));
  }

  // ---- Handler dispatch ----
  using Handler = std::function<void(Node&, sim::Message&, HandlerClock&)>;
  void register_handler(MsgType t, Handler h);
  const Handler& handler(MsgType t) const;

  // ---- Execution ----
  // Run `program` as one compute task per node. One-shot per Cluster.
  // Returns per-node statistics and the elapsed virtual time.
  util::RunStats run(
      const std::function<void(Node&, sim::Task&)>& program);

  // ---- Host-state checkpoint hooks ----
  // Layers above the cluster (the executor, the MP/irregular runtimes) keep
  // per-node execution state outside node memory — loop counters, scalars,
  // message stashes. They register a capture/restore pair here; capture runs
  // at every checkpoint and returns an opaque blob, restore applies it
  // during rollback. Registration order is preserved (blobs are
  // index-aligned). Register before run().
  struct HostStateHook {
    std::function<std::shared_ptr<void>()> capture;
    std::function<void(const std::shared_ptr<void>&)> restore;
  };
  void register_host_state_hook(HostStateHook h) {
    host_hooks_.push_back(std::move(h));
  }

  sim::Engine& engine() { return engine_; }
  sim::Network& network() { return net_; }

  // Payload recycler: protocol/runtime producers acquire block and chunk
  // buffers here, and the handler dispatch returns them after the handler
  // consumed the message — steady-state block transfers allocate nothing.
  // Sharded per event partition (selected by the engine's drain context) so
  // concurrently drained partitions never touch the same free list. Pool
  // choice never affects simulated results.
  sim::BufferPool& payload_pool() {
    return pools_[static_cast<std::size_t>(engine_.current_partition_id())];
  }
  // Returns a consumed payload to the pool of its sender, node `src`, whose
  // partition drew it: directly when that is the current partition, else
  // at the next window barrier.
  void recycle_payload(int src, std::vector<std::byte>&& payload) {
    FGDSM_DCHECK(src >= 0 && src < cfg_.nnodes);
    const int here = engine_.current_partition_id();
    if (src == here)
      pools_[static_cast<std::size_t>(here)].release(std::move(payload));
    else
      pools_[static_cast<std::size_t>(here)].release_to(src,
                                                        std::move(payload));
  }

  // The one egress point for node traffic: routes through the reliable
  // channel in chaos mode, or straight to the network otherwise (same
  // contract as Network::send). Nodes must use this instead of
  // network().send so that sequencing/retransmission can interpose.
  sim::Time transmit(sim::Time earliest, sim::Message m) {
    return channel_ != nullptr ? channel_->send(earliest, std::move(m))
                               : net_.send(earliest, std::move(m));
  }
  sim::ReliableChannel* channel() { return channel_.get(); }
  sim::FaultInjector* fault_injector() { return fault_.get(); }
  sim::Tracer* tracer() const { return cfg_.tracer; }
  const ClusterConfig& config() const { return cfg_; }
  const sim::CostModel& costs() const { return cfg_.costs; }
  Node& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }

  // ---- Collectives ----
  // Barrier and allreduce run over one tree of vertices, whatever the
  // topology. Vertex i < nnodes is node i's participant. Under kFlat the
  // root is one extra vertex, nnodes, hosted on node 0: the platform's
  // coordinator. It takes no part itself; it counts every node's arrival,
  // node 0's included (by loopback), and releases every node by message.
  // The tree topologies are rooted at node 0's participant. Arrivals flow
  // up the tree, releases back down it, and each vertex's state is written
  // only from its host node's partition.
  //
  // Task-context entry points (Node::barrier, Node::allreduce): record
  // node n's own arrival, or its contribution, and send whatever that
  // completes. The release posts n.barrier_sem (n.reduce_sem, after
  // setting n.reduce_result).
  void barrier_arrive(Node& n, sim::Task& task);
  void reduce_arrive(Node& n, sim::Task& task, double v, Node::ReduceOp op);

  // Pure shape functions over vertices, usable without a Cluster (the unit
  // tests assert parent/child sets directly).
  static int resolve_group(int nnodes, int group);  // 0 -> ceil(sqrt(n))
  static int collective_root(Collectives topo, int nnodes);
  static int collective_parent(Collectives topo, int vertex, int nnodes,
                               int group = 0);
  static std::vector<int> collective_children(Collectives topo, int vertex,
                                              int nnodes, int group = 0);
  // Longest root-to-leaf hop count of the shape (0 for a single node).
  static int collective_depth(Collectives topo, int nnodes, int group = 0);

 private:
  void register_builtin_handlers();

  // ---- Collective tree (see barrier_arrive) ----
  // One collective round at one vertex: children heard so far, and whether
  // the host node's own arrival is in (participants only).
  struct Round {
    int heard = 0;
    bool self = false;
  };
  struct Vertex {
    int parent = -1;            // -1 at the root
    int slot = 0;               // index in the parent's children
    std::vector<int> children;  // ascending: fan-outs send in this order
    Round barrier;
    Round reduce;
    int op = -1;        // this round's reduction op; -1 = none seen yet
    double own = 0.0;   // the host node's own contribution
    // One slot per child. Child values are buffered here and folded in
    // child order once the subtree is complete — never in arrival order,
    // which chaos delays can permute (floating-point combines are
    // order-sensitive, and faults may move timing, not results).
    std::vector<double> contrib;
  };
  Vertex& vertex(int v) { return vertices_[static_cast<std::size_t>(v)]; }
  bool participant(int v) const { return v < cfg_.nnodes; }
  int host(int v) const { return participant(v) ? v : 0; }
  // The vertex on `node` that its children's arrivals report to: node 0
  // collects for the root (under kFlat, the coordinator vertex; its own
  // vertex then has no children), every other node for its own vertex.
  int collector(int node) const { return node == 0 ? root_ : node; }
  using SendFn = std::function<void(sim::Message)>;
  int child_arrival(int node, const sim::Message& m);
  bool complete_round(int v, Round& r);
  void note_op(Vertex& x, int op);
  void barrier_step(int v, sim::Time t, const SendFn& send);
  void reduce_step(int v, sim::Time t, const SendFn& send);
  void fan_out(int v, MsgType type, std::int64_t arg, const SendFn& send);

  // ---- Checkpoint / rollback recovery (fail-stop crashes) ----
  // One node's share of a checkpoint. Memory is captured per block, only for
  // blocks the node can legitimately read (tag != kInvalid) or homes —
  // everything else re-faults through the protocol after rollback, exactly
  // as the paper's fine-grain access control intends. Every capture reuses
  // the previous one's vectors.
  struct BlockRun {
    BlockId first = 0;
    BlockId end = 0;  // one past the last block
  };
  struct NodeCheckpoint {
    std::vector<BlockRun> runs;    // captured blocks, ascending, maximal
    std::vector<std::byte> data;   // the runs' bytes, concatenated
    std::vector<Access> tags;      // full tag array
    sim::Task::Snapshot task;
    std::int64_t barrier_sem = 0;  // value to restore (1 at barrier capture:
                                   // the completed barrier's release, folded)
    std::int64_t reduce_sem = 0;
    std::int64_t recv_sem = 0;
    std::int64_t drain_sem = 0;
    double reduce_result = 0.0;
    std::shared_ptr<void> protocol;  // Protocol::capture_snapshot handle
    std::int64_t bytes = 0;          // serialized size charged to the model
  };
  struct Checkpoint {
    bool valid = false;
    sim::Time t = 0;  // virtual time of capture (rollback_ns accounting)
    std::vector<NodeCheckpoint> nodes;
    std::vector<std::shared_ptr<void>> host_blobs;  // per registered hook
  };
  // Barrier-completion bookkeeping at the collective root: advance the
  // (monotonic, never rolled back) barrier epoch, draw probabilistic
  // crashes for it, and request a checkpoint on every K-th epoch. Runs at
  // the root-completion quiescent point, before any release is sent.
  // Returns true when this is a checkpoint epoch: the caller must then SKIP
  // its inline release fan-out — the capture itself runs at the engine's
  // window barrier (the request event runs inside one partition's drain,
  // where other partitions' task fibers may still be executing on their
  // host workers and cannot be snapshotted), and the releases are replayed
  // one window later by finish_barrier_release so no node moves past the
  // barrier before the capture sees it.
  bool on_barrier_complete(sim::Time t);
  // Deferred release fan-out for checkpoint epochs: same messages/costs as
  // the inline path, charged to the root's host (node 0) protocol
  // processor at time t.
  void finish_barrier_release(sim::Time t);
  void capture_checkpoint(sim::Time t, bool at_barrier);
  // Engine recovery hook: true = rolled back and rescheduled, keep running;
  // false = no crashed node (let the normal failure path proceed). Throws
  // sim::CrashError when a node crashed but no checkpoint exists.
  bool recover();

  ClusterConfig cfg_;
  sim::Engine engine_;
  sim::Network net_;
  std::vector<sim::BufferPool> pools_;  // one per event partition
  // Chaos mode only (both null when cfg_.faults is disabled, keeping the
  // fault-free path untouched).
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<sim::ReliableChannel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // The configured collective tree, built once; vertices_[root_] is its
  // root.
  std::vector<Vertex> vertices_;
  int root_ = 0;
  std::array<Handler, static_cast<std::size_t>(MsgType::kCount)> handlers_;
  std::size_t segment_bytes_ = 0;
  std::vector<std::pair<std::string, GAddr>> regions_;
  bool ran_ = false;
  // Compute tasks live for the whole run (member, not run()-local, so the
  // recovery hook can restore their snapshots mid-run).
  std::vector<std::unique_ptr<sim::Task>> tasks_;
  std::vector<HostStateHook> host_hooks_;
  Checkpoint ckpt_;
  // capture_always ranges and the per-block bitmap derived from them. The
  // bitmap is (re)built inside capture_checkpoint — ranges can be marked
  // before the segment layout is final, when num_blocks() is still growing.
  std::vector<std::pair<GAddr, std::size_t>> capture_always_ranges_;
  std::vector<std::uint8_t> capture_always_blocks_;
  // Capture request handed from the barrier root (partition-drain context)
  // to the engine window hook (coordinator context); the window barrier
  // provides the happens-before.
  bool ckpt_request_ = false;
  sim::Time ckpt_request_t_ = 0;
  // Completed-global-barrier count. Monotonic across recoveries on purpose:
  // a rolled-back run re-executes its barriers under FRESH epoch numbers, so
  // crashp draws (keyed on the epoch) never replay the same verdict and the
  // run makes progress.
  std::uint64_t barrier_epoch_ = 0;
  // Bumped once per rollback. Outbound messages are stamped with it
  // (Network::set_epoch_stamp) and the delivery sink drops any message from
  // an abandoned timeline — the kill switch for stale in-flight traffic the
  // channel's sequence reset cannot see (loopback self-sends bypass the
  // channel's dedup).
  std::uint32_t recovery_epoch_ = 0;
};

}  // namespace fgdsm::tempest
