// Table 3 — per-application breakdown: compute time, communication time
// (dual- and single-cpu) with the percentage reduction from the compiler
// optimizations, and average per-node miss counts with their reduction.
//
// Expected shape (paper §6): miss reductions are large (>= ~65%) everywhere
// except grav (~40%, 129-point arrays vs 128-byte blocks); communication
// time reductions are substantial but smaller than the miss reductions.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  const bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());
  std::printf(
      "Table 3: communication time and miss-count reductions (scale=%.2f, "
      "%d nodes)\n",
      bc.scale, bc.nodes);

  std::vector<std::pair<std::string, hpf::Program>> progs;
  for (const auto& app : apps::registry())
    if (bc.selected(app.name)) progs.emplace_back(app.name, app.scaled(bc.scale));

  bench::RunMatrix m;
  for (const auto& [name, prog] : progs) {
    m.add(name, "u2", prog, core::shmem_unopt(), bc.nodes, true, bc.block);
    m.add(name, "o2", prog, core::shmem_opt_full(), bc.nodes, true, bc.block);
    m.add(name, "u1", prog, core::shmem_unopt(), bc.nodes, false, bc.block);
    m.add(name, "o1", prog, core::shmem_opt_full(), bc.nodes, false, bc.block);
  }
  m.run(bc.jobs);

  util::Table t({"app", "compute (s)", "comm 2cpu (s)", "% red 2cpu",
                 "comm 1cpu (s)", "% red 1cpu", "misses/node (K)",
                 "% red misses"});
  for (const auto& [name, prog] : progs) {
    (void)prog;
    const auto& u2 = m.at(name, "u2");
    const auto& o2 = m.at(name, "o2");
    const auto& u1 = m.at(name, "u1");
    const auto& o1 = m.at(name, "o1");
    const double comm2_u = u2.stats.avg_comm_ns_per_node() / 1e9;
    const double comm2_o = o2.stats.avg_comm_ns_per_node() / 1e9;
    const double comm1_u = u1.stats.avg_comm_ns_per_node() / 1e9;
    const double comm1_o = o1.stats.avg_comm_ns_per_node() / 1e9;
    t.add_row(
        {name,
         util::Table::cell(u2.stats.avg_compute_ns_per_node() / 1e9, 1),
         util::Table::cell(comm2_u, 2),
         util::Table::percent(util::percent_reduction(comm2_u, comm2_o)),
         util::Table::cell(comm1_u, 2),
         util::Table::percent(util::percent_reduction(comm1_u, comm1_o)),
         util::Table::cell(u2.stats.avg_misses_per_node() / 1e3, 1),
         util::Table::percent(util::percent_reduction(
             u2.stats.avg_misses_per_node(),
             o2.stats.avg_misses_per_node()))});
  }
  t.print(std::cout);

  bench::JsonReport jr("table3", bc);
  m.export_to(jr);
  jr.write();
  return 0;
}
