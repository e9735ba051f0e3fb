// Figure 4 — the contribution of bulk transfer and run-time overhead
// elimination (dual-cpu): execution time of each optimization level as a
// fraction of the unoptimized run.
//
// Expected shape (paper §6): base > +bulk > +bulk+rtelim (lower is better),
// with bulk transfer the more important of the two.
// The +pre column is this reproduction's extension (the paper's §4.3/§7
// future work): availability-based redundant-communication elimination.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());
  std::printf(
      "Figure 4: normalized execution time, dual-cpu (scale=%.2f, %d "
      "nodes)\n",
      bc.scale, bc.nodes);

  std::vector<std::pair<std::string, hpf::Program>> progs;
  for (const auto& app : apps::registry())
    if (bc.selected(app.name)) progs.emplace_back(app.name, app.scaled(bc.scale));

  const std::vector<std::pair<std::string, core::Options>> levels = {
      {"unopt", core::shmem_unopt()},
      {"base", core::shmem_opt_base()},
      {"bulk", core::shmem_opt_bulk()},
      {"full", core::shmem_opt_full()},
      {"pre", core::shmem_opt_pre()},
  };
  bench::RunMatrix m(bc);
  for (const auto& [name, prog] : progs)
    for (const auto& [lvl, opt] : levels)
      m.add(name, lvl, prog, opt, bc.nodes, true, bc.block);
  m.run();

  util::Table t({"app", "unopt", "base opts", "+bulk", "+bulk+rtelim",
                 "+pre (ext.)"});
  for (const auto& [name, prog] : progs) {
    (void)prog;
    const double base_ns =
        static_cast<double>(m.at(name, "unopt").stats.elapsed_ns);
    auto frac = [&](const std::string& lvl) {
      return static_cast<double>(m.at(name, lvl).stats.elapsed_ns) / base_ns;
    };
    t.add_row({name, "1.00", util::Table::cell(frac("base")),
               util::Table::cell(frac("bulk")),
               util::Table::cell(frac("full")),
               util::Table::cell(frac("pre"))});
  }
  t.print(std::cout);

  bench::JsonReport jr("fig4", bc);
  m.export_to(jr);
  jr.write();
  return 0;
}
