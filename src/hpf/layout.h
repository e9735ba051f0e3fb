// Column-major array layout in the global shared segment, and the
// linearization of rectangular sections into contiguous address runs —
// the bridge between index-space analysis and the block-granular runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/hpf/section.h"
#include "src/util/assert.h"

namespace fgdsm::hpf {

using GAddr = std::uint64_t;

// A contiguous byte range in the shared segment.
struct Run {
  GAddr addr = 0;
  std::size_t len = 0;
  bool operator==(const Run& o) const {
    return addr == o.addr && len == o.len;
  }
};

struct ArrayLayout {
  std::string name;
  GAddr base = 0;
  std::vector<std::int64_t> extents;  // dim 0 varies fastest (column-major)
  std::size_t elem = 8;               // bytes per element (REAL*8)

  std::int64_t elements() const {
    std::int64_t n = 1;
    for (auto e : extents) n *= e;
    return n;
  }
  std::size_t bytes() const {
    return static_cast<std::size_t>(elements()) * elem;
  }
  // Column-major linear element index.
  std::int64_t linear(const std::vector<std::int64_t>& idx) const {
    FGDSM_DCHECK(idx.size() == extents.size());
    std::int64_t lin = 0, mult = 1;
    for (std::size_t d = 0; d < extents.size(); ++d) {
      FGDSM_DCHECK(idx[d] >= 0 && idx[d] < extents[d]);
      lin += idx[d] * mult;
      mult *= extents[d];
    }
    return lin;
  }
  GAddr addr_of(const std::vector<std::int64_t>& idx) const {
    return base + static_cast<GAddr>(linear(idx)) * elem;
  }
};

// Convert a rectangular section into maximal contiguous address runs,
// merging adjacent runs (a full-column family with consecutive columns
// becomes one run). Unit stride required in dimension 0; outer-dimension
// strides produce one run family per member.
std::vector<Run> linearize(const ArrayLayout& layout,
                           const ConcreteSection& s);

// Same, appending to *out without clearing it — the allocation-free form
// for per-chunk callers that reuse a scratch vector (merging never reaches
// across the append boundary: the first appended run is always pushed).
void linearize_into(const ArrayLayout& layout, const ConcreteSection& s,
                    std::vector<Run>* out);

// Total bytes covered by runs.
std::size_t run_bytes(const std::vector<Run>& runs);

// Shrink each run to the blocks fully contained in it — the paper's
// shmem_limits subsetting (§4.2): compiler-controlled ranges must not claim
// blocks shared with unanalyzed data. Runs that do not cover a whole block
// vanish (their data stays with the default protocol). Compacts `runs` in
// place, so a caller that moves a scratch vector in and back allocates
// nothing.
std::vector<Run> block_align_inner(std::vector<Run> runs,
                                   std::size_t block_size);

}  // namespace fgdsm::hpf
