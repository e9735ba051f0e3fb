#include "src/core/plan.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"

namespace fgdsm::core {

std::vector<Run> normalize_runs(std::vector<Run> runs) {
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.addr != b.addr ? a.addr < b.addr : a.len < b.len;
  });
  std::vector<Run> out;
  for (const Run& r : runs) {
    if (r.len == 0) continue;
    if (!out.empty() && r.addr <= out.back().addr + out.back().len) {
      const GAddr end = std::max(out.back().addr + out.back().len,
                                 r.addr + r.len);
      out.back().len = static_cast<std::size_t>(end - out.back().addr);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

CommPlan build_comm_plan(const hpf::ParallelLoop& loop,
                         const hpf::Program& prog, const hpf::Bindings& b,
                         const LayoutMap& layouts, int np, int me,
                         std::size_t block_size, bool block_align) {
  return plan_from_transfers(hpf::analyze_transfers(loop, prog, b, np),
                             layouts, me, block_size, block_align);
}

CommPlan plan_from_transfers(const std::vector<hpf::Transfer>& transfers,
                             const LayoutMap& layouts, int me,
                             std::size_t block_size, bool block_align) {
  CommPlan plan;
  std::vector<Run> recv_runs;
  std::vector<Run> mk_runs;
  const auto units = [&](const Run& r) {
    return static_cast<std::int64_t>(block_align ? r.len / block_size
                                                 : r.len);
  };
  // Every node lowers every transfer (any_comm/any_flush are global), so
  // the runs scratch is reused across transfers.
  std::vector<Run> runs;
  for (const auto& t : transfers) {
    auto lit = layouts.find(t.array);
    FGDSM_ASSERT_MSG(lit != layouts.end(), "no layout for " << t.array);
    runs.clear();
    hpf::linearize_into(lit->second, t.section, &runs);
    if (block_align) {
      // shmem_limits: keep only whole blocks; trimmed edges stay with the
      // default coherence protocol.
      runs = hpf::block_align_inner(std::move(runs), block_size);
    }
    if (runs.empty()) continue;
    plan.any_comm = true;
    if (t.for_write) plan.any_flush = true;
    if (t.sender == me) {
      for (const Run& r : runs) {
        plan.sends.push_back(CommPlan::Send{r, t.receiver});
        mk_runs.push_back(r);
        if (t.for_write) plan.expected_post += units(r);
      }
    }
    if (t.receiver == me) {
      for (const Run& r : runs) {
        recv_runs.push_back(r);
        plan.expected_pre += units(r);
        if (t.for_write)
          plan.flushes.push_back(CommPlan::Flush{r, t.sender});
      }
    }
  }
  plan.recv = normalize_runs(std::move(recv_runs));
  plan.mk_writable = normalize_runs(std::move(mk_runs));
  return plan;
}

}  // namespace fgdsm::core
