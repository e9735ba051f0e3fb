// Node memory must commit physical pages only where a run touches them,
// whatever state the process heap is in. A binary of its own: mallopt is
// process-wide.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/tempest/cluster.h"
#include "src/tempest/node.h"

namespace fgdsm::tempest {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(NodeMemory, UntouchedSegmentPagesStayUncommitted) {
  // Pin glibc's thresholds where they land after the process frees large
  // mmapped blocks: requests below 32 MiB come from the heap, and freed
  // heap memory is kept rather than returned to the kernel. (Sanitizer
  // allocators ignore mallopt; the check below holds either way.)
  mallopt(M_MMAP_THRESHOLD, 32 * static_cast<int>(kMiB));
  mallopt(M_TRIM_THRESHOLD, 1024 * static_cast<int>(kMiB));
  // Leave 16 touched-then-freed 4 MiB blocks in the heap: a segment-sized
  // calloc would now reuse this memory and have to clear it.
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) {
    void* p = std::malloc(4 * kMiB);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, 4 * kMiB);
    blocks.push_back(p);
  }
  for (void* p : blocks) std::free(p);

  ClusterConfig cfg;
  cfg.nnodes = 16;
  Cluster c(cfg);
  c.allocate("segment", 4 * kMiB);
  const std::size_t host_page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  c.run([&](Node& n, sim::Task&) {
    // Each node touches one byte of the segment: at most that byte's page
    // may be resident.
    const GAddr a = static_cast<GAddr>(n.id()) * 4096;
    *n.mem(a) = std::byte{1};
    EXPECT_LE(n.resident_mem_bytes(), host_page) << "node " << n.id();
  });
}

}  // namespace
}  // namespace fgdsm::tempest
