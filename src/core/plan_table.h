// One table of communication plans per run, shared by every node.
//
// The paper's compiler derives each parallel loop's schedule once,
// parametric in the processor count (§4.1–4.2). The transfer analysis
// (hpf::analyze_transfers) is global — every node would derive the same
// set — and a pure function of (loop, array declarations, referenced
// symbol values, np), so the table runs it once per key for the whole
// cluster and lowers every node's CommPlan (core::plan_from_transfers) in
// the same step. The key is the values of plan_key_symbols plus optional
// extra components: the inspector's index-array write versions, for loops
// whose gather transfers the caller contributes at entry creation.
//
// Entries are immutable and keep their addresses until the table is
// destroyed, so nodes hold plain pointers to them across visits and across
// checkpoint/rollback. A mutex guards creation, so nodes in different
// engine partitions can share the table; it memoizes a pure function, so
// the lock cannot change results.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {

// The non-loop-variable symbols whose values the transfer analysis of
// `loop` can observe: dist/free bounds, the home subscript, every read and
// write subscript, and the extents of every referenced array (including the
// home array). Sorted, deduplicated. Loop variables themselves (dist + free)
// are excluded — the analysis ranges over them symbolically.
std::vector<std::string> plan_key_symbols(const hpf::ParallelLoop& loop,
                                          const hpf::Program& prog);

class PlanTable {
 public:
  struct Entry {
    const std::vector<std::string>* symbols = nullptr;  // the loop's key
    std::vector<std::int64_t> key;  // values of *symbols, then the extra
    std::vector<hpf::Transfer> transfers;  // unfiltered analysis (+ gathers)
    std::vector<CommPlan> plans;           // lowered per node, by node id

    // True if `b` (plus `extra`) evaluates to this entry's key. Reads only
    // the entry, so a node can test its last entry without the table lock.
    bool matches(const hpf::Bindings& b,
                 const std::vector<std::int64_t>& extra) const;
  };

  // Plans are lowered for nodes 0..np-1 with the given block size and
  // alignment (true for shared memory, false for message passing).
  // `layouts` is read when entries are created, not here.
  PlanTable(const hpf::Program& prog, const LayoutMap& layouts, int np,
            std::size_t block_size, bool block_align);

  // The entry for `loop` under `b` plus `extra`. The first request for a
  // key runs the analysis, appends `gathers()` when given, and lowers all
  // np plans; every later request returns the same entry.
  const Entry& get(
      const hpf::ParallelLoop& loop, const hpf::Bindings& b,
      const std::vector<std::int64_t>& extra = {},
      const std::function<std::vector<hpf::Transfer>()>& gathers = {});

 private:
  struct Slot {
    std::vector<std::string> symbols;  // plan_key_symbols, computed once
    std::map<std::vector<std::int64_t>, Entry> entries;
  };

  const hpf::Program& prog_;
  const LayoutMap& layouts_;
  const int np_;
  const std::size_t block_size_;
  const bool block_align_;

  std::mutex mu_;  // guards slots_ and key_
  std::map<const hpf::ParallelLoop*, Slot> slots_;
  std::vector<std::int64_t> key_;  // get()'s lookup key, reused
};

}  // namespace fgdsm::core
