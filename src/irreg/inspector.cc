#include "src/irreg/inspector.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/hpf/distribution.h"
#include "src/hpf/layout.h"
#include "src/tempest/cluster.h"
#include "src/util/assert.h"

namespace fgdsm::irreg {

using hpf::ConcreteInterval;
using hpf::ConcreteSection;
using hpf::Run;

NeedList::NeedList(std::span<const std::byte> records) : bytes_(records) {
  FGDSM_ASSERT_MSG(records.size() % kRecordBytes == 0,
                   "malformed needs payload (" << records.size()
                                               << " bytes)");
}

Need NeedList::operator[](std::size_t i) const {
  std::int64_t rec[3];
  std::memcpy(rec, bytes_.data() + i * kRecordBytes, kRecordBytes);
  return Need{rec[0], rec[1], rec[2]};
}

void NeedList::encode(const std::vector<Need>& needs, std::byte* out) {
  for (const Need& nd : needs) {
    const std::int64_t rec[3] = {nd.array, nd.lo, nd.hi};
    std::memcpy(out, rec, kRecordBytes);
    out += kRecordBytes;
  }
}

bool has_indirect(const hpf::ParallelLoop& loop) {
  return !loop.ind_reads.empty();
}

namespace {
bool phases_have_indirect(const std::vector<hpf::Phase>& phases) {
  for (const auto& ph : phases) {
    switch (ph.kind) {
      case hpf::Phase::Kind::kParallelLoop:
        if (has_indirect(*ph.loop)) return true;
        break;
      case hpf::Phase::Kind::kTimeLoop:
        if (phases_have_indirect(ph.time->phases)) return true;
        break;
      case hpf::Phase::Kind::kScalar:
        break;
    }
  }
  return false;
}
}  // namespace

bool has_indirect(const hpf::Program& prog) {
  return phases_have_indirect(prog.phases);
}

void gather_arrays_into(const hpf::ParallelLoop& loop,
                        const hpf::Program& prog,
                        std::vector<std::string>* out) {
  out->clear();
  for (const auto& ir : loop.ind_reads) {
    const hpf::ArrayDecl& a = prog.array(ir.array);
    if (a.dist == hpf::DistKind::kReplicated) continue;  // local reads
    FGDSM_ASSERT_MSG(a.extents.size() == 1,
                     "indirect read of multi-dimensional array " << ir.array);
    FGDSM_ASSERT_MSG(a.dist == hpf::DistKind::kBlock,
                     "indirect read of non-BLOCK array " << ir.array);
    out->push_back(ir.array);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::vector<std::string> gather_arrays(const hpf::ParallelLoop& loop,
                                       const hpf::Program& prog) {
  std::vector<std::string> names;
  gather_arrays_into(loop, prog, &names);
  return names;
}

ScanResult scan(const hpf::ParallelLoop& loop, const hpf::Program& prog,
                const hpf::Bindings& b, const core::LayoutMap& layouts,
                int np, tempest::Node& node, sim::Task& task,
                bool ensure_index, ScanScratch* scratch) {
  ScanScratch local;
  ScanResult res;
  scan_into(loop, prog, b, layouts, np, node, task, ensure_index,
            scratch != nullptr ? *scratch : local, &res);
  return res;
}

void scan_into(const hpf::ParallelLoop& loop, const hpf::Program& prog,
               const hpf::Bindings& b, const core::LayoutMap& layouts,
               int np, tempest::Node& node, sim::Task& task,
               bool ensure_index, ScanScratch& sc, ScanResult* out) {
  ScanResult& res = *out;
  res.needs.clear();
  res.elements_scanned = 0;
  gather_arrays_into(loop, prog, &sc.canon);
  const std::vector<std::string>& canon = sc.canon;
  if (canon.empty()) return;
  const int me = node.id();
  const ConcreteInterval iters = hpf::local_iters(loop, prog, b, np, me);

  // Out-of-owner elements, logged as (array id, element) and deduplicated
  // after the fact: sort + unique over the flat log replaces a per-array
  // std::set, whose node allocations dominated the inspection's heap
  // traffic (one per needed element).
  sc.elems.clear();

  for (const auto& ir : loop.ind_reads) {
    const auto cit = std::find(canon.begin(), canon.end(), ir.array);
    if (cit == canon.end()) continue;  // replicated: local
    const std::size_t aid = static_cast<std::size_t>(cit - canon.begin());
    // The gathered array is 1-D (gather_arrays_into asserts it).
    const std::int64_t n = prog.array(ir.array).extents[0].eval(b);
    const ConcreteInterval owned =
        hpf::owned_interval(hpf::DistKind::kBlock, me, n, np);
    if (iters.empty()) continue;

    ConcreteSection& sec = sc.sec;
    hpf::ref_section_into(loop, ir.index_array, ir.index_subs, prog, b, iters,
                          sc.footprint, &sec);
    const hpf::ArrayDecl& idx_decl = prog.array(ir.index_array);
    hpf::array_extents_into(idx_decl, b, &sc.ext);
    hpf::clip_to_array(sc.ext, &sec);
    if (sec.empty()) continue;

    const hpf::ArrayLayout& lay = layouts.at(ir.index_array);
    // The last dimension of owned_section(idx_decl, ...), without building
    // the section.
    const ConcreteInterval idx_owned =
        hpf::owned_interval(idx_decl.dist, me, sc.ext.back(), np);
    sc.runs.clear();
    hpf::linearize_into(lay, sec, &sc.runs);
    for (const Run& r : sc.runs) {
      if (ensure_index) {
        node.ensure_readable(task, r.addr, r.len);
      } else if (idx_decl.dist != hpf::DistKind::kReplicated) {
        // Message passing has no fault path to pull remote index data in
        // before the schedule exists: the index footprint must be owned.
        const ConcreteInterval last = sec.dims.back();
        FGDSM_ASSERT_MSG(last.lo >= idx_owned.lo && last.hi <= idx_owned.hi,
                         "message-passing inspector requires an aligned "
                         "indirection array ("
                             << ir.index_array << ")");
      }
      const double* vals = reinterpret_cast<const double*>(node.mem(r.addr));
      const std::size_t count = r.len / sizeof(double);
      for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t e =
            std::llround(vals[i]) + ir.value_offset;
        FGDSM_ASSERT_MSG(e >= 0 && e < n,
                         "indirection value out of range: " << ir.array << "("
                             << e << ") of " << n);
        if (e < owned.lo || e > owned.hi)
          sc.elems.emplace_back(static_cast<std::int64_t>(aid), e);
      }
      res.elements_scanned += static_cast<std::int64_t>(count);
    }
  }

  // Deduplicate, then merge each array's elements into maximal disjoint
  // intervals. Lexicographic (array id, element) order reproduces exactly
  // the iteration order of the old per-array ordered sets.
  std::sort(sc.elems.begin(), sc.elems.end());
  sc.elems.erase(std::unique(sc.elems.begin(), sc.elems.end()),
                 sc.elems.end());
  for (std::size_t i = 0; i < sc.elems.size();) {
    Need nd;
    nd.array = sc.elems[i].first;
    nd.lo = nd.hi = sc.elems[i].second;
    ++i;
    while (i < sc.elems.size() && sc.elems[i].first == nd.array &&
           sc.elems[i].second == nd.hi + 1) {
      nd.hi = sc.elems[i].second;
      ++i;
    }
    res.needs.push_back(nd);
  }

  // Deterministic inspection cost: one runtime-call entry plus a streaming
  // pass over the scanned index values.
  const sim::CostModel& costs = node.cluster().costs();
  task.charge(costs.ccc_call_overhead +
              costs.copy_time(res.elements_scanned *
                              static_cast<std::int64_t>(sizeof(double))));
}

std::vector<hpf::Transfer> needs_to_transfers(
    std::span<const sim::Payload> needs_by_node,
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, int np) {
  const std::vector<std::string> canon = gather_arrays(loop, prog);
  std::vector<std::int64_t> extent;
  extent.reserve(canon.size());
  for (const std::string& name : canon)
    extent.push_back(hpf::array_extents(prog.array(name), b)[0]);
  std::vector<hpf::Transfer> out;
  for (int p = 0; p < np; ++p) {
    const NeedList needs(needs_by_node[static_cast<std::size_t>(p)].bytes());
    for (std::size_t i = 0; i < needs.size(); ++i) {
      const Need nd = needs[i];
      FGDSM_ASSERT_MSG(
          nd.array >= 0 &&
              nd.array < static_cast<std::int64_t>(canon.size()),
          "bad array id " << nd.array << " in needs exchange");
      const std::size_t a = static_cast<std::size_t>(nd.array);
      const std::int64_t n = extent[a];
      // The 1-D BLOCK owners of [lo, hi] are owner(lo)..owner(hi).
      const std::int64_t lo = std::max<std::int64_t>(nd.lo, 0);
      const std::int64_t hi = std::min(nd.hi, n - 1);
      if (lo > hi) continue;
      const int first = hpf::owner_of(hpf::DistKind::kBlock, lo, n, np);
      const int last = hpf::owner_of(hpf::DistKind::kBlock, hi, n, np);
      for (int q = first; q <= last; ++q) {
        if (q == p) continue;
        const ConcreteInterval inter = hpf::intersect(
            ConcreteInterval{nd.lo, nd.hi, 1},
            hpf::owned_interval(hpf::DistKind::kBlock, q, n, np));
        if (inter.empty()) continue;
        hpf::Transfer t;
        t.array = canon[a];
        t.sender = q;
        t.receiver = p;
        t.section.dims = {inter};
        t.for_write = false;
        out.push_back(std::move(t));
      }
    }
  }
  return out;
}

}  // namespace fgdsm::irreg
