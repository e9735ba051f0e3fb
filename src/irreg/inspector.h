// Inspector half of the inspector–executor runtime for irregular accesses
// (CHAOS/PARTI lineage): the compiler cannot form the access set of
// A(idx(i)) — only *which index elements* each node reads is affine. The
// inspector closes the gap at run time:
//
//   1. scan(): each node reads its local iterations' slice of the
//      indirection array(s) and derives the set of data elements it needs
//      but does not own, merged into maximal disjoint intervals (Need
//      records).
//   2. The need lists are broadcast (irreg::IrregRuntime::exchange) so every
//      node holds all np lists, as packed records it does not decode.
//   3. needs_to_transfers(): the identical global need set folds into
//      hpf::Transfer records — the same currency the affine planner
//      produces — and core::plan_from_transfers lowers the union into a
//      CommPlan. The run's core::PlanTable does this once per key, reading
//      the first arriving node's lists in place. Block alignment
//      (shmem_limits trimming) happens there: partially-owned blocks fall
//      back to the default protocol, exactly as for affine sections.
//
// Determinism contract: scan() is a pure function of (loop, bindings,
// layouts, memory contents); needs_to_transfers() of its inputs. Every node
// derives the same transfer set, so the counting semaphores of the executor
// contract stay consistent without any reply round.
//
// Scope: gather only (indirect reads of 1-D BLOCK-distributed arrays).
// Indirect writes (scatter) stay with the default protocol — a runtime
// scatter schedule would need multi-writer flush merging the CCC contract
// does not provide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"
#include "src/hpf/layout.h"
#include "src/sim/payload.h"
#include "src/sim/task.h"
#include "src/tempest/node.h"

namespace fgdsm::irreg {

// One needed element interval [lo, hi] of one gathered data array, as found
// by one node's scan. `array` indexes the loop's canonical gather-array list
// (gather_arrays) — the id space the needs exchange serializes.
struct Need {
  std::int64_t array = 0;
  std::int64_t lo = 0;  // inclusive, element units
  std::int64_t hi = 0;  // inclusive
  bool operator==(const Need& o) const {
    return array == o.array && lo == o.lo && hi == o.hi;
  }
};

// One node's need list as the needs exchange carries it: packed records of
// three int64 (array, lo, hi), read in place instead of decoded into a
// vector.
class NeedList {
 public:
  static constexpr std::size_t kRecordBytes = 3 * sizeof(std::int64_t);

  explicit NeedList(std::span<const std::byte> records);
  std::size_t size() const { return bytes_.size() / kRecordBytes; }
  Need operator[](std::size_t i) const;

  // Packs `needs` into `out`, which holds needs.size() * kRecordBytes bytes.
  static void encode(const std::vector<Need>& needs, std::byte* out);

 private:
  std::span<const std::byte> bytes_;
};

// True if the loop (or any loop of the program) carries indirect reads.
bool has_indirect(const hpf::ParallelLoop& loop);
bool has_indirect(const hpf::Program& prog);

// Canonical (sorted, deduplicated) list of the data arrays `loop` gathers
// through indirection, excluding replicated arrays (their reads are local).
// Asserts the remaining arrays are 1-D and BLOCK-distributed.
std::vector<std::string> gather_arrays(const hpf::ParallelLoop& loop,
                                       const hpf::Program& prog);
// Allocation-free form: clears and refills *out, reusing its capacity.
void gather_arrays_into(const hpf::ParallelLoop& loop,
                        const hpf::Program& prog,
                        std::vector<std::string>* out);

struct ScanResult {
  std::vector<Need> needs;             // sorted by (array, lo), disjoint
  std::int64_t elements_scanned = 0;   // index elements read
};

// Reusable arena for scan()'s need-list temporaries. Iterative apps with a
// changing indirection array (the spmv sweep) re-inspect every timestep;
// holding one of these per node across timesteps keeps the steady-state
// scan allocation-free — the element log replaces the per-element
// node-allocating std::set the scan used to build.
struct ScanScratch {
  std::vector<std::string> canon;  // canonical gather-array list
  // Out-of-owner elements as (array id, element); sorted + deduplicated in
  // place, then folded into maximal intervals.
  std::vector<std::pair<std::int64_t, std::int64_t>> elems;
  std::vector<hpf::Run> runs;      // linearized index-slice runs
  // One indirect read's index section, its compiled reference and the
  // index array's extents.
  hpf::ConcreteSection sec;
  hpf::FootprintScratch footprint;
  std::vector<std::int64_t> ext;
};

// Scan the indirection arrays over this node's local iterations and return
// the non-owned data intervals it needs. With ensure_index set (shared
// memory) the index blocks are faulted readable through the default protocol
// first; without it (message passing) the index footprint must already be
// owned by this node (aligned indirection arrays) — asserted.
// Charges the deterministic inspection cost to `task`. `scratch` (optional)
// donates reusable temporaries; pass the same one across timesteps to make
// repeat inspections allocation-free.
ScanResult scan(const hpf::ParallelLoop& loop, const hpf::Program& prog,
                const hpf::Bindings& b, const core::LayoutMap& layouts,
                int np, tempest::Node& node, sim::Task& task,
                bool ensure_index, ScanScratch* scratch = nullptr);
// scan() refilling *out, whose need list keeps its capacity: with the same
// scratch and result across inspections, repeat scans reuse every buffer.
void scan_into(const hpf::ParallelLoop& loop, const hpf::Program& prog,
               const hpf::Bindings& b, const core::LayoutMap& layouts,
               int np, tempest::Node& node, sim::Task& task,
               bool ensure_index, ScanScratch& scratch, ScanResult* out);

// Fold all nodes' need lists (indexed by node id, each a NeedList payload,
// sorted/disjoint as produced by scan) into the implied transfer set: for
// every needed interval of node p, one Transfer per owning node q != p of
// the overlap, in ascending q. BLOCK owners of an interval form a
// contiguous range, so only those are visited. Pure and deterministic —
// identical inputs give an identical list on every node.
std::vector<hpf::Transfer> needs_to_transfers(
    std::span<const sim::Payload> needs_by_node,
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, int np);

}  // namespace fgdsm::irreg
