// Weak-scaling harness: fixed work per node while the cluster grows
// (default 8 -> 64 -> 256 nodes; --nodes-list picks any set up to
// tempest::kMaxNodes). Two workloads per point:
//
//   jacobi   n x n five-point relaxation with n ~ base * sqrt(nodes), so the
//            per-node tile stays constant — the regular stencil exercises the
//            shared-memory protocol and the barrier at every sweep;
//   spmv     ELL sparse matvec with n ~ base * nodes rows — the irregular
//            inspector-executor path plus an allreduce per iteration.
//
// Under perfect weak scaling the simulated elapsed time per point would be
// flat; the growth that remains is the collective depth (the scaling ablation
// --collectives selects; default binomial here, since a flat coordinator at
// 1024 nodes serializes the barrier) plus protocol contention.
//
// This harness reports simulated results only. bench_selfperf times the same
// programs at their default sizes (its jacobi@N and spmv@N rows), and
// scripts/check_perf.py gates that host cost. --json writes fgdsm-bench-v1
// (bench/common.h; check it with scripts/check_results_json.py),
// byte-identical at any --jobs and --sim-threads.
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/executor.h"
#include "src/util/options.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

int scale_main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::from_args(
      argc, argv, {"jacobi", "spmv"}, {"nodes-list", "sweeps", "iters"});
  util::Options o(argc, argv);  // re-parse for the harness-specific flags
  const std::vector<int> node_counts =
      bench::parse_int_list(o.get("nodes-list", "8,64,256"), "--nodes-list",
                            1, tempest::kMaxNodes);
  // Per-node work knobs: sweeps/iterations stay fixed while the grid grows.
  const std::int64_t sweeps = o.get_int("sweeps", 8);
  const std::int64_t iters = o.get_int("iters", 4);
  // Weak scaling at a flat coordinator serializes the barrier by design;
  // default to the binomial tree unless the user picked a topology (passing
  // --collectives=flat explicitly measures exactly that serialization).
  if (!o.has("collectives")) cfg.collectives = tempest::Collectives::kBinomial;
  cfg.nodes = node_counts.back();  // JSON config block: the largest point

  std::printf(
      "Weak scaling (fixed work per node), collectives=%s, block=%zuB\n",
      tempest::to_string(cfg.collectives), cfg.block);

  struct Point {
    std::string app;  // "jacobi" or "spmv"
    int nodes = 0;
    std::int64_t n = 0;  // linear problem dimension actually used
    std::string col() const { return std::to_string(nodes) + "n"; }
  };
  std::vector<Point> points;
  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers
  bench::RunMatrix m(cfg);
  for (const int nodes : node_counts) {
    for (const std::string app : {"jacobi", "spmv"}) {
      if (!cfg.selected(app)) continue;
      bench::WeakScaled w =
          bench::weak_scaled(app, cfg.scale, nodes, sweeps, iters);
      progs.push_back(std::move(w.prog));
      points.push_back({app, nodes, w.n});
      m.add(app, points.back().col(), progs.back(), core::shmem_opt_full(),
            nodes, /*dual_cpu=*/true, cfg.block);
    }
  }
  m.run();

  util::Table t({"app", "nodes", "n", "sim elapsed", "events"});
  for (const Point& p : points) {
    const exec::RunResult& r = m.at(p.app, p.col());
    t.add_row({p.app, std::to_string(p.nodes), std::to_string(p.n),
               util::format_ns(r.stats.elapsed_ns),
               util::format_count(r.engine_events)});
  }
  t.print(std::cout);

  // Weak-scaling efficiency relative to the first point of each app: the
  // simulated elapsed-time ratio (1.0 = perfect weak scaling).
  bench::JsonReport jr("scale", cfg);
  m.export_to(jr);
  for (const Point& p : points) {
    for (const Point& base : points) {
      if (base.app != p.app) continue;
      if (&base != &p)
        jr.add_metric(
            p.app + "@" + std::to_string(p.nodes) + "_elapsed_vs_" +
                std::to_string(base.nodes),
            static_cast<double>(m.at(p.app, p.col()).stats.elapsed_ns) /
                static_cast<double>(
                    m.at(base.app, base.col()).stats.elapsed_ns));
      break;  // only the first point of this app is the reference
    }
  }
  jr.write();
  return 0;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) { return fgdsm::scale_main(argc, argv); }
