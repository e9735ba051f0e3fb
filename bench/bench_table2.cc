// Table 2 — the application suite: problem sizes and memory usage. Memory
// is computed from the actual array declarations at the paper's sizes and
// compared with the paper's column (our arrays are REAL*8 throughout;
// shallow and lu were REAL*4 in the original — see DESIGN.md).
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "src/hpf/analysis.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  // Accepts the common flags (--jobs etc.) for uniform driving by
  // run_experiments.sh; the inventory is computed, not simulated.
  const bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, bench::registry_names());
  bench::JsonReport jr("table2", bc);
  util::Table t({"Application", "Problem Size", "Paper Mem (MB)",
                 "Our Mem (MB)", "Arrays", "Distribution"});
  for (const auto& app : apps::registry()) {
    if (!bc.selected(app.name)) continue;
    const hpf::Program prog = app.paper();
    hpf::Bindings b = prog.sizes;
    b.set(hpf::kSymNProcs, 8);
    b.set(hpf::kSymProc, 0);
    double bytes = 0;
    std::string dists;
    for (const auto& a : prog.arrays) {
      double e = 8;
      for (const auto& x : a.extents) e *= static_cast<double>(x.eval(b));
      bytes += e;
      if (dists.empty()) dists = to_string(a.dist);
      else if (dists.find(to_string(a.dist)) == std::string::npos)
        dists += std::string("+") + to_string(a.dist);
    }
    t.add_row({app.name, app.paper_problem,
               util::Table::cell(app.paper_memory_mb, 1),
               util::Table::cell(bytes / 1e6, 1),
               util::Table::cell(static_cast<std::int64_t>(
                   prog.arrays.size())),
               dists});
    jr.add_metric(app.name + "_mem_mb", bytes / 1e6);
  }
  std::printf("Table 2: application suite\n");
  t.print(std::cout);
  jr.write();
  return 0;
}
