// Sharer set for one directory entry.
//
// The original directory kept sharers in a raw 64-bit bitmask, hard-limiting
// the cluster to 64 nodes. This type keeps that representation as the inline
// fast path — nodes 0–63 live in one word, identical operations — and
// spills nodes >= 64 into words taken from its directory's SharerArena. A
// set that gains its first member >= 64 takes ceil(np/64) − 1 consecutive
// arena words and keeps them for the entry's life (clear() zeroes them).
// The arena grows geometrically, so a directory allocates O(log entries)
// times however many of its entries spill, and no entry allocates by
// itself. A 1024-node cluster pays extra memory only for entries whose
// blocks are actually shared above node 63 (page-granular homing makes
// most sharer sets small and low-numbered).
//
// Every operation that can see nodes >= 64 takes the arena. A set's words
// are an offset into its arena, so copying a set would alias the source's
// words: iterate with the members to skip instead of copying.
//
// Iteration (for_each) visits members in ascending node order — the
// invalidation fan-out loops over this, and ascending order is part of the
// simulator's bit-identity contract (the old code scanned n = 0..nnodes).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/util/assert.h"

namespace fgdsm::proto {

// Spill words for the sharer sets of one directory (one home node).
class SharerArena {
 public:
  SharerArena() = default;
  explicit SharerArena(int nnodes)
      : stride_(nnodes > 64 ? static_cast<std::size_t>(nnodes - 1) / 64
                            : 0) {}

  // Words per spilled set: ceil(np/64) − 1.
  std::size_t stride() const { return stride_; }
  // Drops every spilled set's words (the directory was emptied).
  void clear() { words_.clear(); }

 private:
  friend class SharerSet;
  // A zeroed run of stride_ words; returns its offset.
  std::uint32_t take() {
    const std::size_t at = words_.size();
    FGDSM_DCHECK(stride_ > 0 && at + stride_ <= UINT32_MAX);
    words_.resize(at + stride_, 0);
    return static_cast<std::uint32_t>(at);
  }

  std::vector<std::uint64_t> words_;
  std::size_t stride_ = 0;
};

class SharerSet {
 public:
  void add(int n, SharerArena& a) {
    if (n < 64) {
      lo_ |= std::uint64_t{1} << n;
      return;
    }
    if (hi_ == kNone) hi_ = a.take();
    a.words_[at(n, a)] |= mask(n);
  }

  void remove(int n, SharerArena& a) {
    if (n < 64) {
      lo_ &= ~(std::uint64_t{1} << n);
      return;
    }
    if (hi_ != kNone) a.words_[at(n, a)] &= ~mask(n);
  }

  bool contains(int n, const SharerArena& a) const {
    if (n < 64) return (lo_ >> n) & 1;
    return hi_ != kNone && (a.words_[at(n, a)] & mask(n)) != 0;
  }

  // Drops membership but keeps the spill words — a directory entry that
  // once went wide will likely go wide again.
  void clear(SharerArena& a) {
    lo_ = 0;
    if (hi_ != kNone) std::fill_n(a.words_.begin() + hi_, a.stride_, 0);
  }

  int count(const SharerArena& a) const {
    int c = std::popcount(lo_);
    if (hi_ != kNone)
      for (std::size_t i = 0; i < a.stride_; ++i)
        c += std::popcount(a.words_[hi_ + i]);
    return c;
  }

  // The inline word (nodes 0–63) — snapshot/logging compatibility.
  std::uint64_t low64() const { return lo_; }

  // Visit members in ascending node order. `f` may add to other sets of
  // the same arena: each spill word is re-read by index.
  template <class F>
  void for_each(const SharerArena& a, F&& f) const {
    for (std::uint64_t w = lo_; w != 0; w &= w - 1)
      f(std::countr_zero(w));
    if (hi_ == kNone) return;
    for (std::size_t i = 0; i < a.stride_; ++i)
      for (std::uint64_t w = a.words_[hi_ + i]; w != 0; w &= w - 1)
        f(static_cast<int>(64 * (i + 1)) + std::countr_zero(w));
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::size_t at(int n, const SharerArena& a) const {
    const std::size_t w = static_cast<std::size_t>(n) / 64 - 1;
    FGDSM_DCHECK(w < a.stride_);
    return hi_ + w;
  }
  static std::uint64_t mask(int n) {
    return std::uint64_t{1} << (static_cast<std::size_t>(n) % 64);
  }

  std::uint64_t lo_ = 0;      // nodes 0–63 (the paper-scale path)
  std::uint32_t hi_ = kNone;  // offset of the spill words in the arena
};

}  // namespace fgdsm::proto
