// Figure 3 — speedups on the 8-node cluster for every application:
// unoptimized vs compiler-optimized shared memory, single-cpu and dual-cpu
// protocol processing, plus the message-passing backend; all relative to
// the uniprocessor run.
//
// Expected shape (paper §6): optimization improves every app; single-cpu
// configurations gain proportionally more; message passing wins only on lu;
// grav improves least.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  const bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());
  // Header reports only experiment parameters — never --jobs, so output
  // files compare byte-identical across job counts.
  std::printf(
      "Figure 3: speedups vs uniprocessor (scale=%.2f, %d nodes, %zuB "
      "blocks)\n",
      bc.scale, bc.nodes, bc.block);

  // Build the whole app x configuration sweep, then execute it as one batch.
  std::vector<std::pair<std::string, hpf::Program>> progs;
  for (const auto& app : apps::registry())
    if (bc.selected(app.name)) progs.emplace_back(app.name, app.scaled(bc.scale));

  bench::RunMatrix m;
  for (const auto& [name, prog] : progs) {
    m.add(name, "serial", prog, core::serial(), 1, true, bc.block);
    m.add(name, "u1", prog, core::shmem_unopt(), bc.nodes, false, bc.block);
    m.add(name, "o1", prog, core::shmem_opt_full(), bc.nodes, false, bc.block);
    m.add(name, "u2", prog, core::shmem_unopt(), bc.nodes, true, bc.block);
    m.add(name, "o2", prog, core::shmem_opt_full(), bc.nodes, true, bc.block);
    m.add(name, "mp", prog, core::msg_passing(), bc.nodes, true, bc.block);
  }
  m.run(bc.jobs);

  util::Table t({"app", "sm-unopt 1cpu", "sm-opt 1cpu", "sm-unopt 2cpu",
                 "sm-opt 2cpu", "msg-passing", "opt gain 2cpu"});
  for (const auto& [name, prog] : progs) {
    (void)prog;
    const auto& serial = m.at(name, "serial");
    const auto& u2 = m.at(name, "u2");
    const auto& o2 = m.at(name, "o2");
    const double gain = 100.0 * (static_cast<double>(u2.stats.elapsed_ns) -
                                 static_cast<double>(o2.stats.elapsed_ns)) /
                        static_cast<double>(u2.stats.elapsed_ns);
    t.add_row({name, util::Table::cell(bench::speedup(serial, m.at(name, "u1"))),
               util::Table::cell(bench::speedup(serial, m.at(name, "o1"))),
               util::Table::cell(bench::speedup(serial, u2)),
               util::Table::cell(bench::speedup(serial, o2)),
               util::Table::cell(bench::speedup(serial, m.at(name, "mp"))),
               util::Table::percent(gain)});
  }
  t.print(std::cout);

  bench::JsonReport jr("fig3", bc);
  m.export_to(jr);
  jr.write();
  return 0;
}
