// Execution modes and optimization levels — the configurations the paper
// evaluates (Figures 3 and 4).
#pragma once

#include <cstddef>
#include <string>

namespace fgdsm::core {

enum class Mode {
  kSerial,       // 1 node, no checks: the speedup denominator
  kShmemUnopt,   // default protocol only (transparent shared memory)
  kShmemOpt,     // compiler-directed coherence (Fig. 2 call sequence)
  kMsgPassing,   // the pghpf-style message-passing backend baseline
};

struct Options {
  Mode mode = Mode::kShmemUnopt;

  // Bulk transfer (§4.2 / Fig. 4): coalesce contiguous compiler-controlled
  // blocks into payloads of up to max_payload bytes. Off = one message per
  // block.
  bool bulk_transfer = false;
  std::size_t max_payload = 4096;

  // Run-time overhead elimination (§4.3 / Fig. 4): under whole-program
  // owner-computes assumptions, drop mk_writable (and its barrier), make
  // implicit_writable first-time-only, and drop implicit_invalidate.
  bool rt_overhead_elim = false;

  // Extension (paper's §4.3/§7 future work): availability-based redundant
  // communication elimination — skip a transfer when the same section was
  // already communicated and nothing wrote the array in between.
  bool elim_redundant_comm = false;

  // Inspector–executor schedule reuse (CHAOS/PARTI amortization): a loop
  // with indirect reads replays its last gather schedule while neither its
  // structural symbols nor its indirection arrays changed. Off re-inspects
  // every visit — the needs exchange is real communication, so such runs
  // are slower in virtual time, though numerically identical. Affine loops
  // are unaffected: their plans always come from the run's shared
  // core::PlanTable, which costs no simulated time.
  bool reuse_schedule = true;

  std::string label() const;
};

// The named configurations used by benches/tests.
Options serial();
Options shmem_unopt();
Options shmem_opt_base();   // sender-initiated transfers only
Options shmem_opt_bulk();   // + bulk transfer
Options shmem_opt_full();   // + run-time overhead elimination
Options shmem_opt_pre();    // + redundant-communication elimination (ext.)
Options msg_passing();

}  // namespace fgdsm::core
