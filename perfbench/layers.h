// Per-layer host timings: each function drives one layer's public entry
// point in isolation, repeats the measurement, and returns the per-call cost
// summary. Every repetition is one span in the log (layer = the module name
// under src/).
#pragma once

#include <cstddef>
#include <vector>

#include "perfbench/measure.h"
#include "src/hpf/ir.h"

namespace fgdsm::perfbench {

// sim: ns per event of a self-rescheduling event chain (schedule + dispatch).
Summary sim_event_ns(SpanLog& log);
// sim: ns per task resume->yield round trip (two tasks that out-charge each
// other's lookahead, so every charge() hands the baton through the engine).
Summary sim_fiber_switch_ns(SpanLog& log);
// sim: ns per message through the reliable channel on a perfect 2-node wire
// (sequence + retain + deliver + ack).
Summary sim_channel_send_ack_ns(SpanLog& log);
// proto: host ns per Stache read miss on a 2-node cluster (request, home
// handler, data reply, fiber stall and resume).
Summary proto_read_miss_host_ns(SpanLog& log);

// The compiler layers on a workload's own programs and node count. Every
// parallel loop of every program is analyzed as node 0 with enclosing time
// counters bound to 0.
struct CompilerTimes {
  Summary analyze_transfers_us;  // hpf::analyze_transfers, per loop
  Summary chunk_footprint_ns;    // hpf::chunk_footprint_into, per reference
  Summary plan_us;               // core::plan_from_transfers, per loop
};
CompilerTimes compiler_layers(const std::vector<const hpf::Program*>& progs,
                              int np, std::size_t block, SpanLog& log);

// tempest: ns per Node::ensure_chunk over a chunk footprint that is already
// accessible (the executor's per-chunk access check when nothing faults).
Summary tempest_ensure_chunk_ns(const std::vector<const hpf::Program*>& progs,
                                int np, std::size_t block, SpanLog& log);

// irreg: us per irreg::scan of node 0's slice of the first irregular loop of
// `spmv` when the cluster has np nodes.
Summary irreg_scan_us(const hpf::Program& spmv, int np, std::size_t block,
                      SpanLog& log);

}  // namespace fgdsm::perfbench
