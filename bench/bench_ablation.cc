// Ablations over the design choices DESIGN.md calls out:
//   1. block-size sweep (32/64/128 B): smaller blocks shrink the edge
//      effect but raise per-block protocol costs;
//   2. bulk-transfer payload sweep: the marginal value of coalescing;
//   3. the grav edge-effect study: 129-point vs 128-point arrays at 128 B
//      blocks (the paper's §6 explanation of grav's poor miss reduction).
// Each section builds its sweep as a batch (--jobs=N host threads).
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/common.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  const bench::BenchConfig bc = bench::BenchConfig::from_args(argc, argv, {});
  bench::JsonReport jr("ablation", bc);

  // ---- 1. Block-size sweep on jacobi ----
  {
    std::printf("Ablation 1: block-size sweep (jacobi, scale=%.2f, %d "
                "nodes, sm-opt+bulk+rtelim)\n",
                bc.scale, bc.nodes);
    util::Table t({"block", "elapsed (ms)", "misses/node",
                   "% misses removed vs unopt"});
    const hpf::Program prog = apps::registry()[5].scaled(bc.scale);
    bench::RunMatrix m;
    for (std::size_t block : {32u, 64u, 128u}) {
      const std::string row = std::to_string(block);
      m.add(row, "unopt", prog, core::shmem_unopt(), bc.nodes, true, block);
      m.add(row, "opt", prog, core::shmem_opt_full(), bc.nodes, true, block);
    }
    m.run(bc.jobs);
    for (std::size_t block : {32u, 64u, 128u}) {
      const std::string row = std::to_string(block);
      const auto& u = m.at(row, "unopt");
      const auto& o = m.at(row, "opt");
      t.add_row({util::Table::cell(static_cast<std::int64_t>(block)),
                 util::Table::cell(o.stats.elapsed_ns / 1e6, 1),
                 util::Table::cell(o.stats.avg_misses_per_node(), 0),
                 util::Table::percent(util::percent_reduction(
                     u.stats.avg_misses_per_node(),
                     o.stats.avg_misses_per_node()))});
      jr.add_run("jacobi", "block" + row + "/unopt", u);
      jr.add_run("jacobi", "block" + row + "/opt", o);
    }
    t.print(std::cout);
    if (bc.per_loop)
      bench::print_per_loop("jacobi opt 128B", m.at("128", "opt"));
  }

  // ---- 2. Payload sweep on pde (large contiguous plane transfers) ----
  {
    std::printf("\nAblation 2: bulk-transfer payload sweep (pde)\n");
    util::Table t({"max payload", "elapsed (ms)", "ccc msgs/node"});
    const hpf::Program prog = apps::registry()[0].scaled(bc.scale);
    bench::RunMatrix m;
    for (std::size_t payload : {128u, 512u, 2048u, 4096u, 16384u}) {
      core::Options opt = core::shmem_opt_full();
      opt.max_payload = payload;
      m.add(std::to_string(payload), "run", prog, opt, bc.nodes, true,
            bc.block);
    }
    m.run(bc.jobs);
    for (std::size_t payload : {128u, 512u, 2048u, 4096u, 16384u}) {
      const auto& r = m.at(std::to_string(payload), "run");
      jr.add_run("pde", "payload" + std::to_string(payload), r);
      t.add_row(
          {util::Table::cell(static_cast<std::int64_t>(payload)),
           util::Table::cell(r.stats.elapsed_ns / 1e6, 1),
           util::Table::cell(static_cast<double>(
                                 r.stats.totals().ccc_messages_sent) /
                                 bc.nodes,
                             0)});
    }
    t.print(std::cout);
  }

  // ---- 3. grav's edge effect: 129-point vs 128-point arrays ----
  {
    std::printf("\nAblation 3: the grav edge effect (128B blocks)\n");
    util::Table t({"grid", "% misses removed", "note"});
    const hpf::Program g127 = apps::grav(127, 2);
    const hpf::Program g128 = apps::grav(128, 2);
    bench::RunMatrix m;
    for (const auto* p : {&g127, &g128}) {
      const std::string row = p == &g127 ? "127" : "128";
      m.add(row, "unopt", *p, core::shmem_unopt(), bc.nodes, true, 128);
      m.add(row, "opt", *p, core::shmem_opt_full(), bc.nodes, true, 128);
    }
    m.run(bc.jobs);
    for (std::int64_t g : {127, 128}) {  // arrays are (g+1)^2: 128 vs 129
      const std::string row = std::to_string(g);
      jr.add_run("grav", "grid" + row + "/unopt", m.at(row, "unopt"));
      jr.add_run("grav", "grid" + row + "/opt", m.at(row, "opt"));
      t.add_row({util::Table::cell(g + 1) + "^2",
                 util::Table::percent(util::percent_reduction(
                     m.at(row, "unopt").stats.avg_misses_per_node(),
                     m.at(row, "opt").stats.avg_misses_per_node())),
                 g == 127 ? "columns block-aligned"
                          : "129-point columns: pronounced edges (paper)"});
    }
    t.print(std::cout);
  }

  jr.write();
  return 0;
}
