// The paper's contract, by hand: drives the compiler-directed coherence
// primitives directly against the Tempest runtime — the exact call sequence
// of the paper's Figure 2 — and prints the block access states at each step
// so you can watch the "compiler-controlled incoherence" happen.
//
//   $ ./examples/stencil_ghost_exchange
//
// Node 0 owns a column of data that node 1 reads each iteration (a ghost
// column). The directory believes node 0 holds it exclusively throughout;
// node 1's copy exists only by compiler contract.
#include <cstdio>
#include <cstring>

#include "src/proto/stache.h"
#include "src/tempest/cluster.h"

using namespace fgdsm;
using tempest::Access;
using tempest::BlockId;
using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::Node;

namespace {

const char* tag(Node& n, BlockId b) { return to_string(n.access(b)); }

void show(Cluster& c, BlockId b0, BlockId b1, const char* when) {
  std::printf("  %-38s", when);
  for (int p = 0; p < 2; ++p) {
    std::printf(" | node%d: ", p);
    for (BlockId b = b0; b <= b1; ++b)
      std::printf("%-9s ", tag(c.node(p), b));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  ClusterConfig cfg;
  cfg.nnodes = 2;
  cfg.block_size = 128;
  Cluster c(cfg);
  proto::Stache proto(c);
  const tempest::GAddr col = c.allocate("column", 512);  // 4 blocks
  const BlockId b0 = c.block_of(col);
  const BlockId b1 = c.block_of(col + 511);
  constexpr int kIters = 3;

  std::printf("Figure 2 walkthrough: 4-block ghost column, owner=node0, "
              "reader=node1\n");
  c.run([&](Node& n, sim::Task& t) {
    for (int it = 0; it < kIters; ++it) {
      if (n.id() == 0) {
        // Producer computes new values (the "previous loop").
        n.ensure_writable(t, col, 512);
        for (int w = 0; w < 64; ++w) {
          const double v = 100.0 * it + w;
          std::memcpy(n.mem(col + 8 * w), &v, 8);
        }
        n.note_writes(col, 512);
        if (it == 0) show(c, b0, b1, "A. producer wrote (mk_writable state)");
        // (mk_writable would run here; the owner already holds the blocks
        // writable — the common case of Section 4.3.)
        proto.mk_writable(n, t, b0, b1);
      }
      n.barrier(t);
      if (n.id() == 1) {
        proto.implicit_writable(n, t, b0, b1);
        if (it == 0) show(c, b0, b1, "B. after implicit_writable");
      }
      n.barrier(t);
      if (n.id() == 0)
        proto.send_blocks(n, t, col, 512, 1, /*max_payload=*/512);
      if (n.id() == 1) {
        proto.ready_to_recv(n, t, 4);
        if (it == 0) show(c, b0, b1, "C. after send/ready_to_recv");
        // "The loop": consume the ghost column.
        double sum = 0;
        for (int w = 0; w < 64; ++w) {
          double v;
          std::memcpy(&v, n.mem(col + 8 * w), 8);
          sum += v;
        }
        std::printf("  iteration %d: node1 read ghost column, sum=%.0f\n",
                    it, sum);
        proto.implicit_invalidate(n, t, b0, b1);
        if (it == 0) show(c, b0, b1, "D. after implicit_invalidate");
      }
      n.barrier(t);
    }
    if (n.id() == 0) {
      const auto snap = proto.dir_snapshot(b0);
      std::printf(
          "  directory for block %llu at the end: %s (owner %d) — it never "
          "learned node1 had copies\n",
          static_cast<unsigned long long>(b0),
          snap.state == proto::Stache::DirState::kExcl ? "Excl" : "not-Excl",
          snap.owner);
      std::printf("  node0 protocol messages sent: %llu (no per-iteration "
                  "coherence traffic for the column)\n",
                  static_cast<unsigned long long>(
                      n.stats.ccc_messages_sent));
    }
  });
  return 0;
}
