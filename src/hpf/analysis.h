// Access-set analysis (paper §4.1): for each distributed array referenced in
// a parallel loop, compute — per processor — the sections read and written,
// the owned section, and from their difference the *non-owner-read* and
// *non-owner-write* sets, partitioned by the owning (sending) processor.
//
// The analysis is deterministic and runs identically on every node (the
// compiled program evaluates the same parametric expressions with the same
// symbol values), so senders and receivers independently agree on every
// transfer — including the expected block counts for ready_to_recv.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/hpf/ir.h"
#include "src/hpf/layout.h"
#include "src/hpf/section.h"

namespace fgdsm::hpf {

// A single producer->consumer section movement implied by a parallel loop.
struct Transfer {
  std::string array;
  int sender = -1;    // the HPF owner of the section
  int receiver = -1;  // the non-owner reader (or writer)
  ConcreteSection section;
  // false: non-owner read (owner ships data before the loop).
  // true:  non-owner write (owner ships data before; writer flushes back
  //        after the loop).
  bool for_write = false;
};

// Concrete extents of an array under the given bindings.
std::vector<std::int64_t> array_extents(const ArrayDecl& a,
                                        const Bindings& b);
// Allocation-free form: clears and refills *out, reusing its capacity.
void array_extents_into(const ArrayDecl& a, const Bindings& b,
                        std::vector<std::int64_t>* out);

// The full section owned by processor p (all dims full, last dim the
// distribution's owned interval).
ConcreteSection owned_section(const ArrayDecl& a, const Bindings& b, int np,
                              int p);

// Which dist-loop iterations processor p executes (owner-computes or
// block-by-index).
ConcreteInterval local_iters(const ParallelLoop& loop, const Program& prog,
                             const Bindings& b, int np, int p);

// ---- Compiled references ----
//
// The paper's compiler keeps access sets parametric in the processor and
// problem-size symbols and evaluates them with concrete values at run time
// (§4.1). Compiling a reference against one loop and one set of bindings
// leaves only integers: per dimension, the loop variable the subscript
// reads, its coefficient, and every other symbol folded into one constant.
// A compiled reference is its dimensions' CompiledSubs, stored
// contiguously. The executor compiles a loop's references once per visit
// and evaluates them per chunk without looking up a name; the functions
// below compile and evaluate in one call.

// One dimension of a compiled reference: coeff * (loop variable) + rest.
struct CompiledSub {
  static constexpr int kNone = -2;  // the subscript reads no loop variable
  static constexpr int kDist = -1;  // it reads the distributed variable
  int var = kNone;                  // otherwise: the free variable's index
  std::int64_t coeff = 0;
  std::int64_t rest = 0;            // every other symbol, folded
};

// A free loop variable's bounds, each a constant plus a coefficient times
// the distributed variable.
struct CompiledFree {
  std::int64_t lo = 0, lo_dist = 0;
  std::int64_t hi = 0, hi_dist = 0;
  // The variable's range with the distributed variable at `dist`.
  ConcreteInterval at(std::int64_t dist) const {
    return ConcreteInterval{lo + lo_dist * dist, hi + hi_dist * dist, 1}
        .normalized();
  }
};

// Compiles `loop`'s free-variable bounds under `b`; clears *out first.
void compile_free(const ParallelLoop& loop, const Bindings& b,
                  std::vector<CompiledFree>* out);

// Compiles one reference's subscripts under `b`, appending one CompiledSub
// per dimension to *out. Each subscript may read at most one loop variable.
void compile_ref(const ParallelLoop& loop, const std::vector<AffineExpr>& subs,
                 const Bindings& b, std::vector<CompiledSub>* out);

// The section a compiled reference touches as the distributed variable
// ranges over dist_range and each free variable over its bounds at
// dist_range.lo: exact for one chunk, and for a whole range when no free
// bound reads the distributed variable. Clears and refills out->dims.
void eval_ref(std::span<const CompiledSub> ref,
              std::span<const CompiledFree> free,
              const ConcreteInterval& dist_range, ConcreteSection* out);

// Section of `ref.array` touched by `ref` as the dist variable ranges over
// dist_range and free variables over their bounds. Free-variable bounds must
// not reference the dist variable (rectangular sections only).
ConcreteSection ref_section(const ParallelLoop& loop, const ArrayRef& ref,
                            const Program& prog, const Bindings& b,
                            const ConcreteInterval& dist_range);

// Footprint of `ref` for a single chunk (dist variable fixed); free-variable
// bounds may reference the dist variable here.
ConcreteSection chunk_footprint(const ParallelLoop& loop, const ArrayRef& ref,
                                const Program& prog, const Bindings& b,
                                std::int64_t dist_value);

// Reusable compiled state for chunk_footprint_into and ref_section_into.
struct FootprintScratch {
  std::vector<CompiledFree> free;
  std::vector<CompiledSub> subs;
};

// ref_section of the reference array(subs), drawing its compiled state from
// `scratch` and refilling out->dims: repeated calls allocate nothing.
void ref_section_into(const ParallelLoop& loop, const std::string& array,
                      const std::vector<AffineExpr>& subs,
                      const Program& prog, const Bindings& b,
                      const ConcreteInterval& dist_range,
                      FootprintScratch& scratch, ConcreteSection* out);

// chunk_footprint drawing its compiled state from `scratch`: clears and
// refills out->dims; both keep their capacity across calls, so repeated
// calls allocate nothing.
void chunk_footprint_into(const ParallelLoop& loop, const ArrayRef& ref,
                          const Program& prog, const Bindings& b,
                          std::int64_t dist_value, FootprintScratch& scratch,
                          ConcreteSection* out);

// Clips every dimension of *s to [0, extent) of its array.
void clip_to_array(const std::vector<std::int64_t>& extents,
                   ConcreteSection* s);

// ---- Compiled chunk runs ----
//
// A chunk's footprint as byte runs is eval_ref at the chunk's value, the
// clip to the array, then linearize_into. For most references that work is
// the same in every chunk up to a shift: when at most one dimension d reads
// the distributed variable j, as c*j + r, and no free variable the
// reference reads has a bound that follows j, chunk j touches the runs at
// index 0 of dimension d moved up by c*j + r times d's stride in bytes, in
// the same order — or nothing when c*j + r falls outside dimension d. A
// reference that reads j nowhere touches the same runs in every chunk.
// ChunkRuns compiles a loop visit's references once into such base runs,
// evaluates the others per chunk, and serves both through at().
class ChunkRuns {
 public:
  // One chunk's runs: each run of `runs` moved up by `shift` bytes.
  struct Chunk {
    std::span<const Run> runs;
    GAddr shift = 0;
  };

  // Starts a visit of `loop` under `b`: compiles its free bounds and drops
  // the previous visit's references. Storage keeps its capacity, so a
  // visit allocates only while it needs more than any before it.
  void begin(const ParallelLoop& loop, const Bindings& b);
  // Compiles a reference of the visit (`subs`, one per dimension of
  // `layout`'s array) and returns its id for at(). Dimension 0 must come
  // out unit-stride, as linearize_into requires.
  std::size_t add(const ParallelLoop& loop,
                  const std::vector<AffineExpr>& subs, const Bindings& b,
                  const ArrayLayout& layout);
  // The runs reference `id` touches in chunk j, clipped to its array. They
  // stay valid until the next begin() or add(); a reference evaluated per
  // chunk returns scratch that the next at() reuses. `layout` must outlive
  // the visit.
  Chunk at(std::size_t id, std::int64_t j);
  // Whether reference `id` is served by shifting its base runs.
  bool shifts(std::size_t id) const { return refs_[id].shifts; }
  // The visit's compiled free bounds.
  const std::vector<CompiledFree>& free() const { return free_; }

 private:
  struct Ref {
    std::size_t sub = 0, rank = 0;  // the reference's CompiledSubs in subs_
    const ArrayLayout* layout = nullptr;
    bool shifts = false;
    // Shifting references: chunk j's index in the dimension that reads j
    // is coeff*j + rest, inside [0, extent); each index step moves the
    // runs by `step` bytes. A reference that reads j nowhere has coeff,
    // rest and step 0 and extent 1. Its base runs are `count` from `run`.
    std::int64_t coeff = 0, rest = 0, extent = 1, step = 0;
    std::size_t run = 0, count = 0;
  };
  std::span<const CompiledSub> ref_subs(const Ref& r) const {
    return {subs_.data() + r.sub, r.rank};
  }

  std::vector<CompiledFree> free_;
  std::vector<CompiledSub> subs_;
  std::vector<Ref> refs_;
  std::vector<Run> base_;
  ConcreteSection section_;  // scratch
  std::vector<Run> chunk_;   // scratch: a per-chunk reference's runs
};

// All transfers implied by one parallel loop: non-owner reads and non-owner
// writes, merged per (array, sender, receiver).
std::vector<Transfer> analyze_transfers(const ParallelLoop& loop,
                                        const Program& prog,
                                        const Bindings& b, int np);

}  // namespace fgdsm::hpf
