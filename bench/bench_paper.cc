// Figure 3 and Table 3 — the paper's two main results, from the same runs.
// Each application runs once per configuration: sm-unopt and sm-opt on
// dual- and single-cpu nodes, the uniprocessor, and message passing. Every
// selected application's six runs execute as one batch
// (exec::BatchRunner, --jobs=N host threads).
//
// Figure 3: speedups vs the uniprocessor run, plus the dual-cpu execution
// time saved by the optimizations. Expected shape (paper §6): optimization
// improves every app; single-cpu configurations gain proportionally more;
// message passing wins only on lu; grav improves least.
//
// Table 3: compute time, communication time (dual- and single-cpu) with the
// percentage reduction from the optimizations, and average per-node miss
// counts with their reduction. Expected shape: miss reductions are large
// everywhere except grav (129-point arrays vs 128-byte blocks);
// communication time reductions are smaller than the miss reductions.
//
// sm-unopt dual-cpu is registered first, so --app=<name> --trace=<file>
// traces that run.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());

  std::vector<std::pair<std::string, hpf::Program>> progs;
  for (const auto& app : apps::registry())
    if (bc.selected(app.name))
      progs.emplace_back(app.name, app.scaled(bc.scale));

  bench::RunMatrix m(bc);
  for (const auto& [name, prog] : progs) {
    m.add(name, "u2", prog, core::shmem_unopt(), bc.nodes, true, bc.block);
    m.add(name, "o2", prog, core::shmem_opt_full(), bc.nodes, true, bc.block);
    m.add(name, "u1", prog, core::shmem_unopt(), bc.nodes, false, bc.block);
    m.add(name, "o1", prog, core::shmem_opt_full(), bc.nodes, false, bc.block);
    m.add(name, "serial", prog, core::serial(), 1, true, bc.block);
    m.add(name, "mp", prog, core::msg_passing(), bc.nodes, true, bc.block);
  }
  m.run();

  // Headers report only experiment parameters — never --jobs, so output
  // files compare byte-identical across job counts.
  std::printf(
      "Figure 3: speedups vs uniprocessor (scale=%.2f, %d nodes, %zuB "
      "blocks)\n",
      bc.scale, bc.nodes, bc.block);
  util::Table fig3({"app", "sm-unopt 1cpu", "sm-opt 1cpu", "sm-unopt 2cpu",
                    "sm-opt 2cpu", "msg-passing", "opt gain 2cpu"});
  for (const auto& [name, prog] : progs) {
    const auto& serial = m.at(name, "serial");
    const auto& u2 = m.at(name, "u2");
    const auto& o2 = m.at(name, "o2");
    fig3.add_row(
        {name, util::Table::cell(bench::speedup(serial, m.at(name, "u1"))),
         util::Table::cell(bench::speedup(serial, m.at(name, "o1"))),
         util::Table::cell(bench::speedup(serial, u2)),
         util::Table::cell(bench::speedup(serial, o2)),
         util::Table::cell(bench::speedup(serial, m.at(name, "mp"))),
         util::Table::percent(util::percent_reduction(
             static_cast<double>(u2.stats.elapsed_ns),
             static_cast<double>(o2.stats.elapsed_ns)))});
  }
  fig3.print(std::cout);

  std::printf(
      "Table 3: communication time and miss-count reductions (scale=%.2f, "
      "%d nodes)\n",
      bc.scale, bc.nodes);
  util::Table t3({"app", "compute (s)", "comm 2cpu (s)", "% red 2cpu",
                  "comm 1cpu (s)", "% red 1cpu", "misses/node (K)",
                  "% red misses"});
  for (const auto& [name, prog] : progs) {
    const auto& u2 = m.at(name, "u2");
    const auto& o2 = m.at(name, "o2");
    const double c2u = u2.stats.avg_comm_ns_per_node() / 1e9;
    const double c2o = o2.stats.avg_comm_ns_per_node() / 1e9;
    const double c1u = m.at(name, "u1").stats.avg_comm_ns_per_node() / 1e9;
    const double c1o = m.at(name, "o1").stats.avg_comm_ns_per_node() / 1e9;
    t3.add_row(
        {name, util::Table::cell(u2.stats.avg_compute_ns_per_node() / 1e9, 1),
         util::Table::cell(c2u, 2),
         util::Table::percent(util::percent_reduction(c2u, c2o)),
         util::Table::cell(c1u, 2),
         util::Table::percent(util::percent_reduction(c1u, c1o)),
         util::Table::cell(u2.stats.avg_misses_per_node() / 1e3, 1),
         util::Table::percent(util::percent_reduction(
             u2.stats.avg_misses_per_node(),
             o2.stats.avg_misses_per_node()))});
  }
  t3.print(std::cout);

  if (bc.per_loop) {
    for (const auto& [name, prog] : progs) {
      bench::print_per_loop(name + " sm-unopt 2cpu", m.at(name, "u2"));
      bench::print_per_loop(name + " sm-opt 2cpu", m.at(name, "o2"));
    }
  }

  bench::JsonReport jr("paper", bc);
  m.export_to(jr);
  jr.write();
  return 0;
}
