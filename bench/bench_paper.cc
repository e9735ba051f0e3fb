// Combined Figure 3 + Table 3 harness: runs each application once per
// configuration (serial, sm-unopt and sm-opt on single- and dual-cpu nodes,
// message passing) and prints both the speedup row and the
// communication/miss breakdown from the same runs — the cheapest way to
// regenerate the paper's two main results at full scale.
//
// The six configurations of each application run as one batch
// (exec::BatchRunner, --jobs=N host threads); partial tables still stream
// after every application so long full-scale runs stay inspectable.
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  const bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());
  std::printf(
      "Figure 3 + Table 3 (scale=%.2f, %d nodes, %zuB blocks)\n",
      bc.scale, bc.nodes, bc.block);
  util::Table fig3({"app", "sm-unopt 1cpu", "sm-opt 1cpu", "sm-unopt 2cpu",
                    "sm-opt 2cpu", "msg-passing"});
  util::Table t3({"app", "compute (s)", "comm 2cpu (s)", "% red 2cpu",
                  "comm 1cpu (s)", "% red 1cpu", "misses/node (K)",
                  "% red misses"});
  bench::JsonReport jr("paper", bc);
  for (const auto& app : apps::registry()) {
    if (!bc.selected(app.name)) continue;
    const hpf::Program prog = app.scaled(bc.scale);
    std::fprintf(stderr, "[%s] %d configurations, %d jobs...\n",
                 app.name.c_str(), 6, bc.jobs);
    bench::RunMatrix m;
    m.add(app.name, "serial", prog, core::serial(), 1, true, bc.block);
    m.add(app.name, "u2", prog, core::shmem_unopt(), bc.nodes, true,
          bc.block);
    m.add(app.name, "o2", prog, core::shmem_opt_full(), bc.nodes, true,
          bc.block);
    m.add(app.name, "u1", prog, core::shmem_unopt(), bc.nodes, false,
          bc.block);
    m.add(app.name, "o1", prog, core::shmem_opt_full(), bc.nodes, false,
          bc.block);
    m.add(app.name, "mp", prog, core::msg_passing(), bc.nodes, true,
          bc.block);
    m.run(bc.jobs);
    const auto& serial = m.at(app.name, "serial");
    const auto& u2 = m.at(app.name, "u2");
    const auto& o2 = m.at(app.name, "o2");
    const auto& u1 = m.at(app.name, "u1");
    const auto& o1 = m.at(app.name, "o1");
    const auto& mp = m.at(app.name, "mp");

    fig3.add_row({app.name, util::Table::cell(bench::speedup(serial, u1)),
                  util::Table::cell(bench::speedup(serial, o1)),
                  util::Table::cell(bench::speedup(serial, u2)),
                  util::Table::cell(bench::speedup(serial, o2)),
                  util::Table::cell(bench::speedup(serial, mp))});
    const double c2u = u2.stats.avg_comm_ns_per_node() / 1e9;
    const double c2o = o2.stats.avg_comm_ns_per_node() / 1e9;
    const double c1u = u1.stats.avg_comm_ns_per_node() / 1e9;
    const double c1o = o1.stats.avg_comm_ns_per_node() / 1e9;
    t3.add_row(
        {app.name,
         util::Table::cell(u2.stats.avg_compute_ns_per_node() / 1e9, 1),
         util::Table::cell(c2u, 2),
         util::Table::percent(util::percent_reduction(c2u, c2o)),
         util::Table::cell(c1u, 2),
         util::Table::percent(util::percent_reduction(c1u, c1o)),
         util::Table::cell(u2.stats.avg_misses_per_node() / 1e3, 1),
         util::Table::percent(util::percent_reduction(
             u2.stats.avg_misses_per_node(),
             o2.stats.avg_misses_per_node()))});
    // Stream partial results so long runs are inspectable.
    std::printf("--- after %s ---\n", app.name.c_str());
    fig3.print(std::cout);
    t3.print(std::cout);
    if (bc.per_loop) {
      bench::print_per_loop(app.name + " sm-unopt 2cpu", u2);
      bench::print_per_loop(app.name + " sm-opt 2cpu", o2);
    }
    std::fflush(stdout);
    m.export_to(jr);
  }
  jr.write();
  return 0;
}
