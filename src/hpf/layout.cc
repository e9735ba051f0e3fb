#include "src/hpf/layout.h"

#include <algorithm>
#include <functional>

namespace fgdsm::hpf {

std::vector<Run> linearize(const ArrayLayout& layout,
                           const ConcreteSection& s) {
  std::vector<Run> runs;
  linearize_into(layout, s, &runs);
  return runs;
}

void linearize_into(const ArrayLayout& layout, const ConcreteSection& s,
                    std::vector<Run>* out) {
  if (s.empty()) return;
  FGDSM_ASSERT(s.dims.size() == layout.extents.size());
  FGDSM_ASSERT_MSG(s.dims[0].normalized().stride == 1 ||
                       s.dims[0].count() == 1,
                   "dimension 0 must be unit-stride for linearization");

  const std::int64_t row_lo = s.dims[0].lo;
  const std::int64_t row_count = s.dims[0].count();
  const std::size_t run_len = static_cast<std::size_t>(row_count) * layout.elem;

  // Odometer over the outer dimensions (dimension 1 varies fastest —
  // column-major, same visit order as the recursive formulation). Fixed
  // local arrays keep this allocation-free; it runs per chunk.
  constexpr std::size_t kMaxRank = 8;
  const std::size_t nd = s.dims.size();
  FGDSM_ASSERT_MSG(nd <= kMaxRank, "array rank > " << kMaxRank);
  ConcreteInterval iv[kMaxRank];
  std::int64_t val[kMaxRank];
  std::int64_t mult[kMaxRank];
  std::int64_t m = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    mult[d] = m;
    m *= layout.extents[d];
    if (d > 0) {
      iv[d] = s.dims[d].normalized();
      val[d] = iv[d].lo;
    }
  }
  // Address of the current run from the odometer state.
  const std::size_t first_new = out->size();
  for (;;) {
    std::int64_t lin = row_lo * mult[0];
    for (std::size_t d = 1; d < nd; ++d) lin += val[d] * mult[d];
    const GAddr a = layout.base + static_cast<GAddr>(lin) * layout.elem;
    if (out->size() > first_new &&
        out->back().addr + out->back().len == a) {
      out->back().len += run_len;  // merge contiguous columns
    } else {
      out->push_back(Run{a, run_len});
    }
    std::size_t d = 1;
    while (d < nd) {
      val[d] += iv[d].stride;
      if (val[d] <= iv[d].hi) break;
      val[d] = iv[d].lo;
      ++d;
    }
    if (d >= nd) break;
  }
}

std::size_t run_bytes(const std::vector<Run>& runs) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.len;
  return total;
}

std::vector<Run> block_align_inner(std::vector<Run> runs,
                                   std::size_t block_size) {
  std::size_t kept = 0;
  for (const Run& r : runs) {
    const GAddr lo = (r.addr + block_size - 1) / block_size * block_size;
    const GAddr hi = (r.addr + r.len) / block_size * block_size;
    if (hi > lo) runs[kept++] = Run{lo, static_cast<std::size_t>(hi - lo)};
  }
  runs.resize(kept);
  return runs;
}

}  // namespace fgdsm::hpf
