// Regular-section algebra ("omega-lite").
//
// The paper represents the array sections it optimizes as contiguous ranges
// (optionally a 2-D family of ranges separated by a fixed stride) — it notes
// (§4.1) they "could be represented by traditional regular section
// descriptors"; Omega was used for engineering convenience. This module is
// that RSD package: ConcreteSection / ConcreteSet are integer sections with
// exact set algebra (intersect, subtract, enumerate). The access analysis
// (analysis.h) evaluates its symbolic bounds (AffineExpr, symbolic.h) with
// the runtime's concrete symbol values and produces these sections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/hpf/symbolic.h"

namespace fgdsm::hpf {

// One dimension: { lo + k*stride : 0 <= k, lo + k*stride <= hi }.
// Empty iff lo > hi.
struct ConcreteInterval {
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  std::int64_t stride = 1;

  bool empty() const { return lo > hi; }
  std::int64_t count() const {
    return empty() ? 0 : (hi - lo) / stride + 1;
  }
  bool contains(std::int64_t v) const {
    return !empty() && v >= lo && v <= hi && (v - lo) % stride == 0;
  }
  // Normalize so hi is exactly the last member.
  ConcreteInterval normalized() const {
    if (empty()) return {0, -1, 1};
    ConcreteInterval r = *this;
    r.hi = lo + (hi - lo) / stride * stride;
    if (r.stride <= 0) r.stride = 1;
    return r;
  }
  bool operator==(const ConcreteInterval& o) const {
    const ConcreteInterval a = normalized(), b = o.normalized();
    if (a.empty() && b.empty()) return true;
    return a.lo == b.lo && a.hi == b.hi &&
           (a.count() == 1 || a.stride == b.stride);
  }
};

// Intersection of two strided intervals (solves the CRT alignment).
ConcreteInterval intersect(const ConcreteInterval& a,
                           const ConcreteInterval& b);
// a \ b, as a union of at most... pieces (general strided difference falls
// back to enumeration for small sets; unit-stride difference is exact and
// cheap).
std::vector<ConcreteInterval> subtract(const ConcreteInterval& a,
                                       const ConcreteInterval& b);

// A rectangular section of an array: one interval per dimension
// (dimension 0 varies fastest — Fortran column-major order).
struct ConcreteSection {
  std::vector<ConcreteInterval> dims;

  bool empty() const {
    for (const auto& d : dims)
      if (d.empty()) return true;
    return dims.empty() ? true : false;
  }
  std::int64_t count() const {
    if (empty()) return 0;
    std::int64_t c = 1;
    for (const auto& d : dims) c *= d.count();
    return c;
  }
  bool contains(const std::vector<std::int64_t>& idx) const;
  bool operator==(const ConcreteSection& o) const { return dims == o.dims; }
};

// Union of rectangular sections (pieces may be disjoint or overlap; count()
// de-duplicates only if you ask via contains-based enumeration).
class ConcreteSet {
 public:
  ConcreteSet() = default;
  explicit ConcreteSet(ConcreteSection s) { add(std::move(s)); }

  void add(ConcreteSection s);
  bool empty() const { return pieces_.empty(); }
  const std::vector<ConcreteSection>& pieces() const { return pieces_; }
  bool contains(const std::vector<std::int64_t>& idx) const;

  ConcreteSet intersect(const ConcreteSection& s) const;
  ConcreteSet subtract(const ConcreteSection& s) const;

  // Exact element count, counting overlapping pieces once (enumerates; use
  // only on test-sized sets).
  std::int64_t exact_count_slow(
      const std::vector<ConcreteInterval>& universe) const;

 private:
  std::vector<ConcreteSection> pieces_;
};

}  // namespace fgdsm::hpf
