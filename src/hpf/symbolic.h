// Affine symbolic expressions — the compiler's currency.
//
// The paper's compiler computes access sets with the Omega library and keeps
// them "parametric with respect to processor number" and problem-size
// symbols; the generated code is evaluated at run time with concrete symbol
// values (§4.1). We reproduce that split: analysis manipulates AffineExpr
// (integer-linear combinations of named symbols), and the planner evaluates
// them against a Bindings table when the runtime instantiates the
// communication schedule.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/util/assert.h"

namespace fgdsm::hpf {

// Well-known symbol names used across the compiler.
inline constexpr const char* kSymProc = "$p";      // executing processor id
inline constexpr const char* kSymNProcs = "$np";   // number of processors

class Bindings {
 public:
  void set(const std::string& sym, std::int64_t v) { values_[sym] = v; }
  std::int64_t get(const std::string& sym) const {
    auto it = values_.find(sym);
    FGDSM_ASSERT_MSG(it != values_.end(), "unbound symbol " << sym);
    return it->second;
  }
  bool has(const std::string& sym) const { return values_.count(sym) > 0; }
  const std::map<std::string, std::int64_t>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::int64_t> values_;
};

class AffineExpr {
 public:
  AffineExpr() = default;
  AffineExpr(std::int64_t c) : c0_(c) {}  // NOLINT: implicit by design
  static AffineExpr sym(const std::string& name, std::int64_t coeff = 1) {
    AffineExpr e;
    if (coeff != 0) e.terms_[name] = coeff;
    return e;
  }

  bool is_constant() const { return terms_.empty(); }
  std::int64_t constant() const {
    FGDSM_ASSERT(is_constant());
    return c0_;
  }
  // The constant part regardless of symbolic terms (overlay evaluation).
  std::int64_t constant_term() const { return c0_; }
  std::int64_t coeff(const std::string& s) const {
    auto it = terms_.find(s);
    return it == terms_.end() ? 0 : it->second;
  }
  bool references(const std::string& s) const { return coeff(s) != 0; }
  // Symbol -> coefficient map (non-zero coefficients only).
  const std::map<std::string, std::int64_t>& terms() const { return terms_; }

  std::int64_t eval(const Bindings& b) const {
    std::int64_t v = c0_;
    for (const auto& [s, c] : terms_) v += c * b.get(s);
    return v;
  }

  AffineExpr operator+(const AffineExpr& o) const {
    AffineExpr r = *this;
    r.c0_ += o.c0_;
    for (const auto& [s, c] : o.terms_) {
      r.terms_[s] += c;
      if (r.terms_[s] == 0) r.terms_.erase(s);
    }
    return r;
  }
  AffineExpr operator-(const AffineExpr& o) const { return *this + o * -1; }
  AffineExpr operator*(std::int64_t k) const {
    AffineExpr r;
    if (k == 0) return r;
    r.c0_ = c0_ * k;
    for (const auto& [s, c] : terms_) r.terms_[s] = c * k;
    return r;
  }
  bool operator==(const AffineExpr& o) const {
    return c0_ == o.c0_ && terms_ == o.terms_;
  }
  bool operator!=(const AffineExpr& o) const { return !(*this == o); }

  std::string to_string() const;

 private:
  std::int64_t c0_ = 0;
  std::map<std::string, std::int64_t> terms_;
};

inline AffineExpr operator+(std::int64_t k, const AffineExpr& e) {
  return AffineExpr(k) + e;
}

// Overlay evaluation: e.eval(b) with `sym` bound to `val`, without copying
// the bindings map. Equivalent to {Bindings t = b; t.set(sym, val);
// e.eval(t)} — the copy-free form for per-chunk hot paths.
inline std::int64_t eval_with(const AffineExpr& e, const Bindings& b,
                              const std::string& sym, std::int64_t val) {
  std::int64_t v = e.constant_term();
  for (const auto& [s, c] : e.terms()) v += c * (s == sym ? val : b.get(s));
  return v;
}

}  // namespace fgdsm::hpf
