#include "src/hpf/analysis.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/assert.h"

namespace fgdsm::hpf {

std::vector<std::int64_t> array_extents(const ArrayDecl& a,
                                        const Bindings& b) {
  std::vector<std::int64_t> e;
  e.reserve(a.extents.size());
  for (const auto& x : a.extents) e.push_back(x.eval(b));
  return e;
}

ConcreteSection owned_section(const ArrayDecl& a, const Bindings& b, int np,
                              int p) {
  const auto ext = array_extents(a, b);
  ConcreteSection s;
  s.dims.reserve(ext.size());
  for (std::size_t d = 0; d + 1 < ext.size(); ++d)
    s.dims.push_back(ConcreteInterval{0, ext[d] - 1, 1});
  s.dims.push_back(owned_interval(a.dist, p, ext.back(), np));
  return s;
}

ConcreteInterval local_iters(const ParallelLoop& loop, const Program& prog,
                             const Bindings& b, int np, int p) {
  const ConcreteInterval range =
      ConcreteInterval{loop.dist.lo.eval(b), loop.dist.hi.eval(b), 1}
          .normalized();
  if (range.empty()) return range;
  switch (loop.comp) {
    case ParallelLoop::Comp::kOwnerComputes: {
      const ArrayDecl& home = prog.array(loop.home_array);
      const std::int64_t last_extent = home.extents.back().eval(b);
      // home_sub must be dist_var + const (unit coefficient) so the owned
      // home indices map back to a strided iteration interval.
      const std::int64_t c = loop.home_sub.coeff(loop.dist.sym);
      FGDSM_ASSERT_MSG(c == 1, "ON HOME subscript must be <distvar> + const");
      const std::int64_t off = eval_with(loop.home_sub, b, loop.dist.sym, 0);
      ConcreteInterval owned =
          owned_interval(home.dist, p, last_extent, np);
      if (owned.empty()) return {0, -1, 1};
      owned.lo -= off;
      owned.hi -= off;
      return intersect(owned, range);
    }
    case ParallelLoop::Comp::kBlockByIndex: {
      const std::int64_t n = range.count();
      const std::int64_t bsz = (n + np - 1) / np;
      const std::int64_t lo = range.lo + p * bsz;
      const std::int64_t hi = std::min(range.lo + (p + 1) * bsz, range.hi + 1) - 1;
      return ConcreteInterval{lo, std::min(hi, range.hi), 1}.normalized();
    }
  }
  return {0, -1, 1};
}

void compile_free(const ParallelLoop& loop, const Bindings& b,
                  std::vector<CompiledFree>* out) {
  // Folds a bound into c + dist_coeff * (distributed variable).
  const auto fold = [&](const AffineExpr& e, std::int64_t* c,
                        std::int64_t* dist_coeff) {
    *c = e.constant_term();
    *dist_coeff = 0;
    for (const auto& [s, k] : e.terms()) {
      if (s == loop.dist.sym)
        *dist_coeff = k;
      else
        *c += k * b.get(s);
    }
  };
  out->clear();
  for (const LoopVar& fv : loop.free) {
    CompiledFree f;
    fold(fv.lo, &f.lo, &f.lo_dist);
    fold(fv.hi, &f.hi, &f.hi_dist);
    out->push_back(f);
  }
}

void compile_ref(const ParallelLoop& loop, const std::vector<AffineExpr>& subs,
                 const Bindings& b, std::vector<CompiledSub>* out) {
  // The loop variable symbol `s` names, if any.
  const auto var_of = [&](const std::string& s) {
    if (s == loop.dist.sym) return CompiledSub::kDist;
    for (std::size_t f = 0; f < loop.free.size(); ++f)
      if (s == loop.free[f].sym) return static_cast<int>(f);
    return CompiledSub::kNone;
  };
  for (const AffineExpr& sub : subs) {
    CompiledSub d;
    d.rest = sub.constant_term();
    for (const auto& [s, k] : sub.terms()) {
      const int var = var_of(s);
      if (var == CompiledSub::kNone) {
        d.rest += k * b.get(s);
        continue;
      }
      FGDSM_ASSERT_MSG(d.var == CompiledSub::kNone,
                       "subscript references two loop variables: "
                           << sub.to_string());
      d.var = var;
      d.coeff = k;
    }
    out->push_back(d);
  }
}

void eval_ref(std::span<const CompiledSub> ref,
              std::span<const CompiledFree> free,
              const ConcreteInterval& dist_range, ConcreteSection* out) {
  out->dims.clear();
  for (const CompiledSub& d : ref) {
    if (d.var == CompiledSub::kNone) {
      out->dims.push_back(ConcreteInterval{d.rest, d.rest, 1});
      continue;
    }
    // Free variables range over their bounds at the range's first value.
    const ConcreteInterval r =
        d.var == CompiledSub::kDist
            ? dist_range.normalized()
            : free[static_cast<std::size_t>(d.var)].at(dist_range.lo);
    if (r.empty()) {
      out->dims.push_back(ConcreteInterval{0, -1, 1});
      continue;
    }
    const std::int64_t a = d.coeff * r.lo + d.rest;
    const std::int64_t z = d.coeff * r.hi + d.rest;
    out->dims.push_back(ConcreteInterval{std::min(a, z), std::max(a, z),
                                         std::abs(d.coeff) * r.stride}
                            .normalized());
  }
}

namespace {
// Compiles `ref` and the loop's free bounds into `sc`. A whole-range
// section (more than one dist value) is rectangular only if no free bound
// reads the distributed variable.
void compile_into(const ParallelLoop& loop, const ArrayRef& ref,
                  const Program& prog, const Bindings& b, bool whole_range,
                  FootprintScratch& sc) {
  FGDSM_ASSERT_MSG(ref.subs.size() == prog.array(ref.array).extents.size(),
                   "rank mismatch on " << ref.array);
  compile_free(loop, b, &sc.free);
  for (std::size_t f = 0; whole_range && f < sc.free.size(); ++f)
    FGDSM_ASSERT_MSG(sc.free[f].lo_dist == 0 && sc.free[f].hi_dist == 0,
                     "free loop bounds of "
                         << loop.free[f].sym
                         << " reference the distributed variable; "
                            "whole-loop sections must be rectangular");
  sc.subs.clear();
  compile_ref(loop, ref.subs, b, &sc.subs);
}
}  // namespace

ConcreteSection ref_section(const ParallelLoop& loop, const ArrayRef& ref,
                            const Program& prog, const Bindings& b,
                            const ConcreteInterval& dist_range) {
  FootprintScratch sc;
  compile_into(loop, ref, prog, b, /*whole_range=*/true, sc);
  ConcreteSection s;
  eval_ref(sc.subs, sc.free, dist_range, &s);
  return s;
}

ConcreteSection chunk_footprint(const ParallelLoop& loop, const ArrayRef& ref,
                                const Program& prog, const Bindings& b,
                                std::int64_t dist_value) {
  FootprintScratch sc;
  ConcreteSection s;
  chunk_footprint_into(loop, ref, prog, b, dist_value, sc, &s);
  return s;
}

void chunk_footprint_into(const ParallelLoop& loop, const ArrayRef& ref,
                          const Program& prog, const Bindings& b,
                          std::int64_t dist_value, FootprintScratch& scratch,
                          ConcreteSection* out) {
  compile_into(loop, ref, prog, b, /*whole_range=*/false, scratch);
  eval_ref(scratch.subs, scratch.free,
           ConcreteInterval{dist_value, dist_value, 1}, out);
}

namespace {
// Merge transfers with identical (array, sender, receiver) whose sections
// differ only in dimension 0, taking the hull there. Overshoot is harmless:
// the sender owns the whole column, extra rows are merely extra bytes.
void merge_into(std::vector<Transfer>& out, Transfer t) {
  for (Transfer& e : out) {
    if (e.array != t.array || e.sender != t.sender ||
        e.receiver != t.receiver || e.for_write != t.for_write)
      continue;
    if (e.section == t.section) return;
    if (e.section.dims.size() == t.section.dims.size()) {
      bool same_outer = true;
      for (std::size_t d = 1; d < e.section.dims.size(); ++d)
        if (!(e.section.dims[d] == t.section.dims[d])) same_outer = false;
      if (same_outer) {
        ConcreteInterval& a = e.section.dims[0];
        const ConcreteInterval bdim = t.section.dims[0].normalized();
        a = a.normalized();
        FGDSM_ASSERT(a.stride == 1 && bdim.stride == 1);
        a.lo = std::min(a.lo, bdim.lo);
        a.hi = std::max(a.hi, bdim.hi);
        return;
      }
    }
  }
  out.push_back(std::move(t));
}
// Ascending candidate senders for one piece: exactly the processors whose
// owned_interval can intersect the piece's distributed (last) dimension.
// The original code scanned every q in 0..np for every piece, which made
// each plan build O(np^2) section intersections — at 256+ nodes that
// dominated the harness (and each node builds its own plan, so the full
// cluster paid O(np^3)). Block ownership is contiguous, so [owner(lo),
// owner(hi)] is tight; cyclic ownership is j % np, so a piece shorter than
// np enumerates its elements and a longer one covers every processor
// anyway. Candidates come out ascending — the transfer list must stay in
// the exact order the full scan produced (plans feed the simulation;
// ordering is part of the bit-identity contract).
void candidate_owners_into(DistKind kind, const ConcreteInterval& iv,
                           std::int64_t n, int np, std::vector<int>& out) {
  out.clear();
  if (iv.empty()) return;
  switch (kind) {
    case DistKind::kBlock: {
      // iv is already clipped to [0, n-1]; contiguous block ownership makes
      // [owner(lo), owner(hi)] tight.
      const int qlo = owner_of(kind, iv.lo, n, np);
      const int qhi = owner_of(kind, iv.hi, n, np);
      for (int q = qlo; q <= qhi; ++q) out.push_back(q);
      return;
    }
    case DistKind::kCyclic: {
      if (iv.count() >= np) {
        for (int q = 0; q < np; ++q) out.push_back(q);
        return;
      }
      for (std::int64_t j = iv.lo; j <= iv.hi; j += iv.stride)
        out.push_back(static_cast<int>(j % np));
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return;
    }
    case DistKind::kReplicated:
      return;
  }
}
}  // namespace

std::vector<Transfer> analyze_transfers(const ParallelLoop& loop,
                                        const Program& prog,
                                        const Bindings& b, int np) {
  std::vector<Transfer> out;
  std::vector<int> owners;  // scratch, reused across pieces
  FootprintScratch compiled;
  ConcreteSection sec;
  auto process = [&](const ArrayRef& ref, bool for_write) {
    const ArrayDecl& a = prog.array(ref.array);
    if (a.dist == DistKind::kReplicated) {
      // Replicated arrays are private per-node copies: reads are local, and
      // writes are only legal from replicated computation (every node
      // writes its own copy identically) — either way, no transfers.
      return;
    }
    const auto ext = array_extents(a, b);
    // Every processor evaluates the same compiled reference over its own
    // iterations; it is compiled at the first processor that has any.
    bool is_compiled = false;
    for (int p = 0; p < np; ++p) {
      const ConcreteInterval iters = local_iters(loop, prog, b, np, p);
      if (iters.empty()) continue;
      if (!is_compiled) {
        compile_into(loop, ref, prog, b, /*whole_range=*/true, compiled);
        is_compiled = true;
      }
      eval_ref(compiled.subs, compiled.free, iters, &sec);
      if (sec.empty()) continue;
      // Clip to array bounds (stencil edges reach outside; those iterations
      // are the body's responsibility to skip, and the analysis must not
      // claim out-of-range elements).
      for (std::size_t d = 0; d < sec.dims.size(); ++d)
        sec.dims[d] = intersect(sec.dims[d],
                                ConcreteInterval{0, ext[d] - 1, 1});
      if (sec.empty()) continue;
      const ConcreteSet nonowner =
          ConcreteSet(sec).subtract(owned_section(a, b, np, p));
      for (const auto& piece : nonowner.pieces()) {
        candidate_owners_into(a.dist, piece.dims.back().normalized(),
                              ext.back(), np, owners);
        for (const int q : owners) {
          if (q == p) continue;
          const ConcreteSet part =
              ConcreteSet(piece).intersect(owned_section(a, b, np, q));
          for (const auto& sub : part.pieces())
            merge_into(out, Transfer{ref.array, q, p, sub, for_write});
        }
      }
    }
  };
  for (const auto& r : loop.reads) process(r, /*for_write=*/false);
  for (const auto& w : loop.writes) process(w, /*for_write=*/true);
  return out;
}

}  // namespace fgdsm::hpf
