// "Stache" — the default coherence protocol of the paper's platform: a
// directory-based, eager-invalidate, multiple-writer release-consistency
// protocol implemented entirely as user-level active-message handlers on the
// Tempest substrate (paper §3, §5).
//
// Protocol outline
// ----------------
// Every block has a *home* node (page-granularity round-robin); the home's
// backing memory is the block's storage and the home runs its directory
// entry. Directory states: Idle (home memory authoritative, no remote
// copies), Shared{S} (read-only copies at S; home memory authoritative),
// Excl{o} (node o holds the one authoritative read-write copy).
//
// A read fault sends kReadReq to the home and stalls until kReadResp. If the
// directory is Excl, the home first recalls the data with
// kPutDataReq/kPutDataResp (the owner downgrades to ReadOnly) — this is the
// 4-message chain of the paper's Figure 1(a).
//
// A write fault on a ReadOnly copy upgrades *eagerly*: the tag flips to
// ReadWrite immediately and kWriteReq is sent, but the processor does not
// wait for kWriteGrant ("it attempts to hide write latency by not waiting
// for the write ownership grant", §5). The transaction stays outstanding and
// drain() — called at release points — waits for it. A write fault on an
// Invalid block first fetches the data (read path), then upgrades.
//
// Multiple-writer correctness. Between the eager upgrade and its grant,
// several nodes can hold writable copies of one block (false sharing at
// array column boundaries — exactly the "edge" blocks the compiler leaves to
// this protocol). Correctness is preserved by per-word dirty masks:
//   - while an upgrade is in flight, the node records which words it stores
//     (Node::note_writes drives this);
//   - an invalidation acknowledges with only the dirty words; the home
//     merges them into its memory *and forwards them inside the eventual
//     kWriteGrant* to the winning writer, which applies every word it has
//     not itself dirtied. A granted (sole) writer's copy is therefore always
//     complete, so its later flushes can carry full-block authority.
//   - a kWriteReq from a node whose copy was invalidated while the request
//     was in flight is *denied* (the home sees the requester is no longer a
//     sharer); the denied node simply closes the transaction — its dirty
//     words already travelled with the invalidation acknowledgement.
//
// Compiler-directed extensions (§4.2). The same module implements the
// primitives the paper adds for compiler-controlled blocks: mk_writable
// (pipelined fetch-exclusive), implicit_writable / implicit_invalidate
// (purely local tag flips — deliberate, compiler-contracted incoherence),
// send_blocks / ready_to_recv (sender-initiated tagged data + counting
// semaphore), and ccc_flush (non-owner writes returning to the owner).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/proto/sharer_set.h"
#include "src/sim/sync.h"
#include "src/tempest/cluster.h"
#include "src/tempest/node.h"
#include "src/tempest/protocol.h"
#include "src/tempest/types.h"

namespace fgdsm::proto {

using tempest::Access;
using tempest::BlockId;
using tempest::GAddr;
using tempest::HandlerClock;
using tempest::MsgType;
using tempest::Node;

class Stache : public tempest::Protocol {
 public:
  // Construct and install: registers all protocol message handlers on the
  // cluster and sets itself as every node's protocol. Must outlive the run.
  explicit Stache(tempest::Cluster& cluster);

  // ---- tempest::Protocol ----
  void on_read_fault(Node& node, sim::Task& task, BlockId b) override;
  void on_write_fault(Node& node, sim::Task& task, BlockId b) override;
  void drain(Node& node, sim::Task& task) override;
  void note_writes(Node& node, GAddr addr, std::size_t len) override;

  // ---- Compiler-directed primitives (task context; see file comment) ----

  // Bring [first,last] to writable state at `node`, pipelined: issues one
  // transaction per block not already ReadWrite and returns without waiting
  // (the following barrier's drain provides the completion point).
  void mk_writable(Node& node, sim::Task& task, BlockId first, BlockId last);

  // Locally open [first,last] for incoming stores. No messages: the
  // directory deliberately keeps believing the owner is exclusive.
  void implicit_writable(Node& node, sim::Task& task, BlockId first,
                         BlockId last);

  // Locally drop [first,last]; restores consistency with the directory's
  // belief after a compiler-controlled phase.
  void implicit_invalidate(Node& node, sim::Task& task, BlockId first,
                           BlockId last);

  // Ship [addr, addr+len) from this node's memory to node `dst` as
  // specially tagged data messages. Contiguous blocks are coalesced into
  // payloads of up to max_payload bytes (the paper's bulk-transfer
  // optimization; pass block_size to disable coalescing).
  void send_blocks(Node& node, sim::Task& task, GAddr addr, std::size_t len,
                   int dst, std::size_t max_payload);

  // Block until `nblocks` compiler-directed data blocks have arrived
  // (counting semaphore, §4.2).
  void ready_to_recv(Node& node, sim::Task& task, std::int64_t nblocks);

  // Non-owner write epilogue: ship [addr, addr+len) back to the owner.
  // The owner must pair this with ready_to_recv for the same block count.
  void ccc_flush(Node& node, sim::Task& task, GAddr addr, std::size_t len,
                 int owner, std::size_t max_payload);

  // Number of blocks fully contained in [addr, addr+len) — what send_blocks
  // will transmit and the receiver must await.
  std::int64_t blocks_in(GAddr addr, std::size_t len) const;

  // ---- Introspection for tests ----
  enum class DirState : std::uint8_t { kIdle, kShared, kExcl };
  struct DirSnapshot {
    DirState state = DirState::kIdle;
    std::uint64_t sharers = 0;  // inline word: members among nodes 0–63
    int owner = -1;
    bool busy = false;
  };
  DirSnapshot dir_snapshot(BlockId b) const;
  int outstanding(int node) const { return nodes_[node].outstanding; }

  // ---- Coherence-invariant checker (--check-coherence) ----
  // Validates the global protocol invariants at a quiescent point (all
  // transactions drained, every compute task blocked except the caller's):
  //   - no directory entry busy or with queued requests;
  //   - per-node transaction counts and dirty-mask upgrade state drained;
  //   - every non-Invalid tag is justified by the directory's belief (home
  //     under Idle; sharer-set membership under Shared; the owner under
  //     Excl) or by a compiler-contracted open (implicit_writable).
  // Returns human-readable descriptions, empty if all invariants hold.
  // The opened-block bookkeeping it relies on is maintained only when the
  // cluster runs with check_coherence set.
  std::vector<std::string> find_violations() const override;
  // tempest::Protocol hook: asserts find_violations() is empty.
  void check_invariants(Node& node) override;

 private:
  struct Txn {
    enum class Kind : std::uint8_t { kRead, kWrite, kFetchExcl };
    Kind kind = Kind::kRead;
    int requester = -1;
    int acks_needed = 0;
    std::uint64_t fixup_mask = 0;  // dirty words merged during this txn
  };
  struct QueuedReq {
    MsgType type;
    int requester;
  };
  struct DirEntry {
    DirState state = DirState::kIdle;
    SharerSet sharers;  // inline bitmask for nodes 0–63, lazy spill above
    int owner = -1;
    bool busy = false;
    Txn txn;
    // FIFO of requests deferred while busy: a vector drained by index (the
    // backing store is reused across transactions, so steady-state queueing
    // allocates nothing).
    std::vector<QueuedReq> queue;
    std::uint32_t queue_head = 0;
    bool queue_empty() const { return queue_head == queue.size(); }
    void queue_push(QueuedReq r) { queue.push_back(r); }
    QueuedReq queue_pop() {
      QueuedReq r = queue[queue_head++];
      if (queue_empty()) {
        queue.clear();
        queue_head = 0;
      }
      return r;
    }
  };
  // In-flight eager-upgrade state for one block at one node. A node can have
  // more than one WriteReq outstanding for the same block: if its copy is
  // invalidated while a request is in flight, it may refetch and re-upgrade
  // before the old request is answered. Each request eventually produces one
  // grant or deny; `reqs` counts them. `mask` records words written since
  // the last fetch/invalidation and resets when the copy is invalidated
  // (those words travel with the invalidation ack).
  struct PendingUpgrade {
    BlockId b = 0;
    int reqs = 0;
    std::uint64_t mask = 0;
  };
  struct NodeState {
    int outstanding = 0;
    sim::Semaphore miss_sem;   // read-miss completion (one at a time)
    sim::Semaphore drain_sem;  // one post per completed transaction
    sim::Semaphore recv_sem;   // ready_to_recv: one post per CCC data block
    // In-flight eager upgrades, linear-scanned: a node has at most a handful
    // live at once (bounded by its outstanding transactions), so a flat
    // vector beats a hash map on every note_writes probe.
    std::vector<PendingUpgrade> upgrade;
  };
  // The directory at one home: its entries, indexed by dir_index, and the
  // spill words of their sharer sets.
  struct Directory {
    std::vector<DirEntry> entries;
    SharerArena spill;
  };
  // One node's protocol state at a checkpoint (the host-state hook
  // registered in the constructor), taken at a quiescent point: the
  // directory entries homed at the node (all idle — no busy entries or
  // queued requests), its compiler-contracted opens, and the drain
  // semaphore's count. The rest of NodeState is drained there.
  struct NodeSnapshot {
    Directory dir;
    std::unordered_set<BlockId> ccc_open;
    std::int64_t drain_sem = 0;
  };

  // Handler bodies (run at the node owning the directory / the copy).
  void h_request(Node& self, sim::Message& m, HandlerClock& clk);
  void h_put_data_req(Node& self, sim::Message& m, HandlerClock& clk);
  void h_put_data_resp(Node& self, sim::Message& m, HandlerClock& clk);
  void h_read_resp(Node& self, sim::Message& m, HandlerClock& clk);
  void h_inval(Node& self, sim::Message& m, HandlerClock& clk);
  void h_inval_ack(Node& self, sim::Message& m, HandlerClock& clk);
  void h_write_grant(Node& self, sim::Message& m, HandlerClock& clk);
  void h_fetch_excl_resp(Node& self, sim::Message& m, HandlerClock& clk);
  void h_ccc_data(Node& self, sim::Message& m, HandlerClock& clk);

  // Home-side helpers.
  static PendingUpgrade* find_upgrade(NodeState& st, BlockId b);
  static const PendingUpgrade* find_upgrade(const NodeState& st, BlockId b);
  std::uint64_t pending_mask_of(int node, BlockId b) const;
  void reset_pending_mask(int node, BlockId b);
  void apply_masked_words(Node& dst, BlockId b, std::uint64_t mask,
                          const sim::Payload& payload);
  // Dense per-home directory indexing: pages are assigned to homes
  // round-robin, so the blocks homed at one node form a regular lattice.
  // dir_index maps a global BlockId to its slot in that home's flat array
  // and dir_block inverts it (for whole-directory sweeps).
  std::size_t blocks_per_page() const {
    return cluster_.config().page_size / cluster_.block_size();
  }
  std::size_t dir_index(BlockId b) const {
    const std::size_t bpp = blocks_per_page();
    return (b / bpp) / static_cast<std::size_t>(cluster_.nnodes()) * bpp +
           b % bpp;
  }
  BlockId dir_block(int home, std::size_t idx) const {
    const std::size_t bpp = blocks_per_page();
    return (idx / bpp * static_cast<std::size_t>(cluster_.nnodes()) +
            static_cast<std::size_t>(home)) *
               bpp +
           idx % bpp;
  }
  DirEntry& dir(Node& home, BlockId b);
  SharerArena& spill(const Node& home) {
    return dir_[static_cast<std::size_t>(home.id())].spill;
  }
  const DirEntry* dir_find(int home, BlockId b) const;
  void service(Node& home, MsgType type, int requester, BlockId b,
               HandlerClock& clk);
  void finish_txn_if_done(Node& home, BlockId b, DirEntry& e,
                          HandlerClock& clk);
  void pump_queue(Node& home, BlockId b, HandlerClock& clk);
  void send_block_msg(Node& from, HandlerClock& clk, int dst, MsgType type,
                      BlockId b, std::uint64_t mask, bool with_data);
  void issue_upgrade(Node& node, sim::Task& task, BlockId b);
  // The CCC data path's one send loop (send_blocks, ccc_flush).
  void send_ccc(Node& node, sim::Task& task, MsgType type, GAddr addr,
                std::size_t len, int dst, std::size_t max_payload);

  std::uint64_t full_mask() const;

  tempest::Cluster& cluster_;
  // dir_[home].entries[dir_index(block)] — flat per-home arrays over the
  // blocks homed there, grown lazily to the highest block that ever saw a
  // remote request. Directory lookups on the request hot path are one
  // indexed load.
  std::vector<Directory> dir_;
  std::vector<NodeState> nodes_;
  // Per node: blocks deliberately opened by implicit_writable (compiler-
  // contracted incoherence the directory does not know about). Maintained
  // only under ClusterConfig::check_coherence, consumed by find_violations.
  std::vector<std::unordered_set<BlockId>> ccc_open_;
  // The last checkpoint's copy of each node's state.
  std::vector<NodeSnapshot> snap_;
};

}  // namespace fgdsm::proto
