// The compiler's program representation: an HPF-like data-parallel program —
// distributed arrays, INDEPENDENT loop nests with affine bounds and affine
// subscripts, reductions, replicated scalar code, and time-step loops.
//
// This mirrors what the paper's modified pghpf front end hands to the
// communication-analysis phase (§4): the distribution directives fix the
// owner relation; each parallel loop carries its computation distribution
// (owner-computes via an ON-HOME-style reference, or blockwise by loop
// index) and the set of array references with affine subscripts. Loop
// *bodies* are native C++ callables operating on raw column-major storage —
// the simulator executes computation at full speed while the declared
// reference lists drive the access-set analysis and the block-granular
// access checks (direct-execution style).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hpf/distribution.h"
#include "src/hpf/layout.h"
#include "src/hpf/symbolic.h"

namespace fgdsm::hpf {

struct ArrayDecl {
  std::string name;
  std::vector<AffineExpr> extents;  // dim 0 varies fastest (column-major)
  DistKind dist = DistKind::kBlock;  // applies to the last dimension
};

// A loop variable with (inclusive) affine bounds, step +1.
struct LoopVar {
  std::string sym;
  AffineExpr lo;
  AffineExpr hi;
};

// An array reference with one affine subscript per dimension. Subscripts may
// reference at most one loop variable each (the affine single-index form the
// paper's optimization targets).
struct ArrayRef {
  std::string array;
  std::vector<AffineExpr> subs;
};

// An indirection-array read: array(index_array(index_subs) + value_offset).
// The data array must be 1-D; the index array's subscripts are affine, so the
// compiler can reason about *which index elements* a chunk reads, while the
// *data* access set exists only at run time — the inspector–executor
// subsystem (src/irreg) computes it by scanning the index values. The stored
// values are interpreted as element indices after adding value_offset
// (e.g. -1 for Fortran 1-based sources).
struct IndirectRef {
  std::string array;                  // the 1-D data array being gathered
  std::string index_array;            // the indirection array
  std::vector<AffineExpr> index_subs; // affine subscripts into index_array
  std::int64_t value_offset = 0;      // added to each stored index value
};

enum class ReduceOp { kSum, kMax, kMin };

// An array resolved when a program is built: its index in Program::arrays,
// plus its name. Loop bodies hand handles to BodyCtx so the executor finds
// the array by index, not by comparing names. The handle owns the name
// because programs are copied, so it cannot point into one.
struct ArrayHandle {
  std::size_t index = 0;
  std::string name;
};

// Execution-time context handed to loop bodies; implemented by the executor.
class BodyCtx {
 public:
  virtual ~BodyCtx() = default;

  // Value of the distributed loop variable for the current chunk.
  virtual std::int64_t dist() const = 0;
  // Value of any bound symbol (problem sizes, time-loop counters, $p, $np).
  virtual std::int64_t sym(const std::string& name) const = 0;

  // Replicated scalar state (identical on every node by construction).
  virtual double scalar(const std::string& name) const = 0;
  virtual void set_scalar(const std::string& name, double v) = 0;

  // Reduction contribution from this chunk (loops with a reduce spec).
  virtual void contribute(double v) = 0;

  // Raw storage access (this node's backing of the shared segment).
  virtual double* data(const std::string& array) = 0;
  virtual const ArrayLayout& layout(const std::string& array) const = 0;
  // The same by handle. A context that indexes its arrays overrides these;
  // the defaults look the handle's name up.
  virtual double* data(const ArrayHandle& array) { return data(array.name); }
  virtual const ArrayLayout& layout(const ArrayHandle& array) const {
    return layout(array.name);
  }
};

// Lightweight column-major views for bodies.
struct View1 {
  double* p;
  double& operator()(std::int64_t i) const { return p[i]; }
};
struct View2 {
  double* p;
  std::int64_t n0;
  double& operator()(std::int64_t i, std::int64_t j) const {
    return p[i + j * n0];
  }
};
struct View3 {
  double* p;
  std::int64_t n0, n1;
  double& operator()(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return p[i + (j + k * n1) * n0];
  }
};
// `A` names the array: an ArrayHandle, or a name.
template <typename A>
View1 view1(BodyCtx& c, const A& a) {
  return View1{c.data(a)};
}
template <typename A>
View2 view2(BodyCtx& c, const A& a) {
  return View2{c.data(a), c.layout(a).extents[0]};
}
template <typename A>
View3 view3(BodyCtx& c, const A& a) {
  const ArrayLayout& l = c.layout(a);
  return View3{c.data(a), l.extents[0], l.extents[1]};
}

struct ParallelLoop {
  std::string name;

  // The loop aligned with the arrays' distributed (last) dimension; the
  // executor iterates it chunk-by-chunk per node.
  LoopVar dist;
  // Remaining loop variables; the body iterates them natively. Their bounds
  // may reference the dist variable (triangular nests, e.g. LU).
  std::vector<LoopVar> free;

  enum class Comp { kOwnerComputes, kBlockByIndex } comp =
      Comp::kOwnerComputes;
  // Owner-computes: iteration dist=j runs on the owner of
  // home_array(last dim = home_sub(j)).
  std::string home_array;
  AffineExpr home_sub;

  std::vector<ArrayRef> reads;
  std::vector<ArrayRef> writes;
  // Irregular (runtime-resolved) reads; empty for purely affine loops. The
  // index arrays must also appear in `reads` with the same subscripts so the
  // affine machinery keeps them coherent.
  std::vector<IndirectRef> ind_reads;

  // Executes one chunk (one value of the dist variable) on local storage.
  std::function<void(BodyCtx&)> body;

  // Compute model: virtual ns charged per inner iteration (product of free
  // loop trip counts) of one chunk. Calibrated per application.
  double cost_per_iter_ns = 50.0;

  // Optional reduction: body calls BodyCtx::contribute; the executor
  // all-reduces and stores the result as a replicated scalar.
  bool has_reduce = false;
  ReduceOp reduce_op = ReduceOp::kSum;
  std::string reduce_scalar;
};

// Replicated scalar computation: runs identically on every node (no
// communication, no distributed accesses).
struct ScalarPhase {
  std::string name;
  std::function<void(BodyCtx&)> body;
  double cost_ns = 200.0;
};

struct TimeLoop;

struct Phase {
  enum class Kind { kParallelLoop, kScalar, kTimeLoop } kind =
      Kind::kParallelLoop;
  std::shared_ptr<ParallelLoop> loop;
  std::shared_ptr<ScalarPhase> scalar;
  std::shared_ptr<TimeLoop> time;

  static Phase make(ParallelLoop l) {
    Phase p;
    p.kind = Kind::kParallelLoop;
    p.loop = std::make_shared<ParallelLoop>(std::move(l));
    return p;
  }
  static Phase make(ScalarPhase s) {
    Phase p;
    p.kind = Kind::kScalar;
    p.scalar = std::make_shared<ScalarPhase>(std::move(s));
    return p;
  }
  static Phase make(TimeLoop t);
};

// A counted (optionally early-exiting) sequence of phases, e.g. the
// time-step loop of a stencil code or the elimination loop of LU.
struct TimeLoop {
  std::string counter;  // bound to 0..count-1 for nested phases
  AffineExpr count;
  std::vector<Phase> phases;
  // Early exit, evaluated (replicated, deterministic) after each iteration.
  std::function<bool(BodyCtx&)> exit_when;
};

inline Phase Phase::make(TimeLoop t) {
  Phase p;
  p.kind = Kind::kTimeLoop;
  p.time = std::make_shared<TimeLoop>(std::move(t));
  return p;
}

struct Program {
  std::string name;
  std::vector<ArrayDecl> arrays;
  std::vector<Phase> phases;
  Bindings sizes;  // default problem-size symbol values

  std::size_t index_of(const std::string& n) const {
    for (std::size_t i = 0; i < arrays.size(); ++i)
      if (arrays[i].name == n) return i;
    FGDSM_ASSERT_MSG(false, "unknown array " << n);
    __builtin_unreachable();
  }
  const ArrayDecl& array(const std::string& n) const {
    return arrays[index_of(n)];
  }
  ArrayHandle handle(const std::string& n) const { return {index_of(n), n}; }
};

}  // namespace fgdsm::hpf
