#include "src/hpf/section.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "src/util/assert.h"

namespace fgdsm::hpf {

namespace {
// Extended gcd: returns g = gcd(a,b) and x,y with a*x + b*y = g.
std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) {
  if (b == 0) {
    x = 1;
    y = 0;
    return a;
  }
  std::int64_t x1, y1;
  const std::int64_t g = egcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a / b - ((a % b != 0) && ((a % b < 0) != (b < 0)) ? 1 : 0);
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return floor_div(a + b - 1, b);
}
}  // namespace

ConcreteInterval intersect(const ConcreteInterval& a0,
                           const ConcreteInterval& b0) {
  const ConcreteInterval a = a0.normalized(), b = b0.normalized();
  if (a.empty() || b.empty()) return {0, -1, 1};
  // Solve lo_a + i*s_a == lo_b + j*s_b.
  std::int64_t x, y;
  const std::int64_t g = egcd(a.stride, b.stride, x, y);
  const std::int64_t diff = b.lo - a.lo;
  if (diff % g != 0) return {0, -1, 1};
  const std::int64_t lcm = a.stride / g * b.stride;
  // One solution: value v0 = a.lo + (diff/g)*x*a.stride; bring into range.
  // Use __int128 to avoid overflow in the multiply.
  const __int128 v0w =
      static_cast<__int128>(a.lo) +
      static_cast<__int128>(diff / g) * x % (lcm / a.stride) * a.stride;
  std::int64_t v0 = static_cast<std::int64_t>(v0w);
  const std::int64_t lo = std::max(a.lo, b.lo);
  const std::int64_t hi = std::min(a.hi, b.hi);
  // Align v0 to the smallest member >= lo.
  v0 = v0 + ceil_div(lo - v0, lcm) * lcm;
  if (v0 > hi) return {0, -1, 1};
  return ConcreteInterval{v0, hi, lcm}.normalized();
}

std::vector<ConcreteInterval> subtract(const ConcreteInterval& a0,
                                       const ConcreteInterval& b0) {
  const ConcreteInterval a = a0.normalized(), b = b0.normalized();
  std::vector<ConcreteInterval> out;
  if (a.empty()) return out;
  const ConcreteInterval both = intersect(a, b);
  if (both.empty()) {
    out.push_back(a);
    return out;
  }
  if (a.stride == 1 && both.stride == 1) {
    // Exact unit-stride difference: up to two pieces.
    if (a.lo <= both.lo - 1) out.push_back({a.lo, both.lo - 1, 1});
    if (both.hi + 1 <= a.hi) out.push_back({both.hi + 1, a.hi, 1});
    return out;
  }
  // General strided case: enumerate (sections in this compiler are small in
  // the strided dimension — CYCLIC columns per processor).
  for (std::int64_t v = a.lo; v <= a.hi; v += a.stride)
    if (!both.contains(v)) out.push_back({v, v, 1});
  // Merge adjacent singletons into runs where possible.
  std::vector<ConcreteInterval> merged;
  for (const auto& iv : out) {
    if (!merged.empty() && merged.back().stride == 1 &&
        merged.back().hi + 1 == iv.lo)
      merged.back().hi = iv.hi;
    else
      merged.push_back(iv);
  }
  return merged;
}

bool ConcreteSection::contains(const std::vector<std::int64_t>& idx) const {
  FGDSM_ASSERT(idx.size() == dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d)
    if (!dims[d].contains(idx[d])) return false;
  return !dims.empty();
}

void ConcreteSet::add(ConcreteSection s) {
  if (!s.empty()) pieces_.push_back(std::move(s));
}

bool ConcreteSet::contains(const std::vector<std::int64_t>& idx) const {
  for (const auto& p : pieces_)
    if (p.contains(idx)) return true;
  return false;
}

ConcreteSet ConcreteSet::intersect(const ConcreteSection& s) const {
  ConcreteSet out;
  for (const auto& p : pieces_) {
    FGDSM_ASSERT(p.dims.size() == s.dims.size());
    ConcreteSection r;
    r.dims.reserve(p.dims.size());
    for (std::size_t d = 0; d < p.dims.size(); ++d)
      r.dims.push_back(hpf::intersect(p.dims[d], s.dims[d]));
    out.add(std::move(r));
  }
  return out;
}

ConcreteSet ConcreteSet::subtract(const ConcreteSection& s) const {
  // Rectangle difference: for each piece, split along each dimension.
  ConcreteSet out;
  for (const auto& p : pieces_) {
    FGDSM_ASSERT(p.dims.size() == s.dims.size());
    ConcreteSection rest = p;
    for (std::size_t d = 0; d < p.dims.size(); ++d) {
      // Pieces where dimension d falls outside s.dims[d] (other dims as in
      // `rest` so far).
      for (const auto& outside : hpf::subtract(rest.dims[d], s.dims[d])) {
        ConcreteSection piece = rest;
        piece.dims[d] = outside;
        out.add(std::move(piece));
      }
      // Continue splitting within the overlap.
      rest.dims[d] = hpf::intersect(rest.dims[d], s.dims[d]);
      if (rest.dims[d].empty()) break;
    }
    // If rest survived every dimension, it is fully inside s: dropped.
  }
  return out;
}

std::int64_t ConcreteSet::exact_count_slow(
    const std::vector<ConcreteInterval>& universe) const {
  // Enumerate the universe and count membership — reference implementation
  // for property tests.
  std::int64_t count = 0;
  std::vector<std::int64_t> idx(universe.size());
  std::function<void(std::size_t)> rec = [&](std::size_t d) {
    if (d == universe.size()) {
      if (contains(idx)) ++count;
      return;
    }
    const ConcreteInterval u = universe[d].normalized();
    for (std::int64_t v = u.lo; v <= u.hi; v += u.stride) {
      idx[d] = v;
      rec(d + 1);
    }
  };
  if (!universe.empty()) rec(0);
  return count;
}

}  // namespace fgdsm::hpf
