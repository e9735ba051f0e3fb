// Table 1 — platform microbenchmarks. Reproduces the paper's cluster
// characterization on the simulated platform:
//   - minimum roundtrip latency for a short (4-byte) message   (~40 us)
//   - network bandwidth                                        (~20 MB/s)
//   - read-miss processing time for a 128-byte block, dual-cpu (~93 us,
//     3-hop: reader -> home -> exclusive owner -> home -> reader)
// Also reports the 2-hop miss and the single-cpu variant for context.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench/common.h"
#include "src/proto/stache.h"
#include "src/sim/sync.h"
#include "src/tempest/cluster.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::MsgType;
using tempest::Node;

// Roundtrip: node 0 sends a 4-byte payload to node 1, whose handler echoes
// it; repeat and average.
sim::Time measure_roundtrip(int reps) {
  ClusterConfig cfg;
  cfg.nnodes = 2;
  Cluster c(cfg);
  c.allocate("pad", 64);
  sim::Semaphore* pong_sem = nullptr;
  c.register_handler(MsgType::kMpData,
                     [&](Node& self, sim::Message& m, tempest::HandlerClock& clk) {
                       if (m.arg[0] == 0) {  // ping: echo back
                         sim::Message echo;
                         echo.dst = m.src;
                         echo.type = static_cast<std::uint16_t>(MsgType::kMpData);
                         echo.arg[0] = 1;
                         echo.payload.resize(4);
                         self.send_from_handler(clk, std::move(echo));
                       } else {  // pong
                         pong_sem->post(clk.t);
                       }
                     });
  sim::Time total = 0;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() != 0) {
      t.charge(reps * sim::kMs);  // stay around to serve echoes
      return;
    }
    sim::Semaphore sem;
    pong_sem = &sem;
    for (int i = 0; i < reps; ++i) {
      const sim::Time t0 = t.now();
      sim::Message ping;
      ping.dst = 1;
      ping.type = static_cast<std::uint16_t>(MsgType::kMpData);
      ping.arg[0] = 0;
      ping.payload.resize(4);
      n.send(t, std::move(ping));
      sem.wait(t);
      total += t.now() - t0;
    }
  });
  return total / reps;
}

// Bandwidth: stream large payloads 0 -> 1, measure delivered bytes/sec.
double measure_bandwidth_mbps() {
  ClusterConfig cfg;
  cfg.nnodes = 2;
  Cluster c(cfg);
  c.allocate("pad", 64);
  constexpr int kMsgs = 64;
  constexpr std::size_t kBytes = 16384;
  sim::Time last_arrival = 0;
  c.register_handler(MsgType::kMpData,
                     [&](Node&, sim::Message&, tempest::HandlerClock& clk) {
                       last_arrival = clk.t;
                     });
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() != 0) {
      t.charge(200 * sim::kMs);
      return;
    }
    for (int i = 0; i < kMsgs; ++i) {
      sim::Message m;
      m.dst = 1;
      m.type = static_cast<std::uint16_t>(MsgType::kMpData);
      m.payload.resize(kBytes);
      n.send(t, std::move(m));
    }
  });
  return static_cast<double>(kMsgs) * kBytes / (sim::to_seconds(last_arrival)) /
         1e6;
}

// Read miss, 128-byte block. hops==2: block idle at its home. hops==3: a
// third node holds it exclusive, forcing the recall chain of Figure 1(a).
sim::Time measure_read_miss(bool dual_cpu, int hops) {
  ClusterConfig cfg;
  cfg.nnodes = 4;
  cfg.block_size = 128;
  cfg.dual_cpu = dual_cpu;
  Cluster c(cfg);
  proto::Stache proto(c);
  const tempest::GAddr a = c.allocate("x", 4096);  // home node 0
  sim::Time miss_time = 0;
  c.run([&](Node& n, sim::Task& t) {
    // Optionally give node 2 an exclusive copy first.
    if (hops == 3 && n.id() == 2) {
      n.ensure_writable(t, a, 8);
      double v = 33.0;
      std::memcpy(n.mem(a), &v, 8);
      n.note_writes(a, 8);
    }
    n.barrier(t);
    if (n.id() == 1) {
      const sim::Time t0 = t.now();
      n.ensure_readable(t, a, 8);
      miss_time = t.now() - t0;
    }
    n.barrier(t);
  });
  return miss_time;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) {
  using namespace fgdsm;
  // Accepts the common flags (--jobs etc.) for uniform driving by
  // run_experiments.sh; the microbenchmarks themselves are fixed-size.
  const bench::BenchConfig bc = bench::BenchConfig::from_args(argc, argv, {});
  const sim::Time rtt = measure_roundtrip(16);
  const double bw = measure_bandwidth_mbps();
  const sim::Time miss2_dual = measure_read_miss(true, 2);
  const sim::Time miss3_dual = measure_read_miss(true, 3);
  const sim::Time miss3_single = measure_read_miss(false, 3);

  util::Table t({"Quantity", "Paper (Table 1)", "Simulated"});
  t.add_row({"Min roundtrip, 4-byte message", "40 us",
             util::Table::cell(sim::to_us(rtt), 1) + " us"});
  t.add_row({"Network bandwidth", "20 MB/s",
             util::Table::cell(bw, 1) + " MB/s"});
  t.add_row({"Read miss, 128B block (dual-cpu, 3-hop)", "93 us",
             util::Table::cell(sim::to_us(miss3_dual), 1) + " us"});
  t.add_row({"Read miss, 128B block (dual-cpu, 2-hop)", "-",
             util::Table::cell(sim::to_us(miss2_dual), 1) + " us"});
  t.add_row({"Read miss, 128B block (single-cpu, 3-hop)", "-",
             util::Table::cell(sim::to_us(miss3_single), 1) + " us"});
  std::printf("Table 1: cluster configuration microbenchmarks\n");
  t.print(std::cout);

  bench::JsonReport jr("table1", bc);
  jr.add_metric("roundtrip_us", sim::to_us(rtt));
  jr.add_metric("bandwidth_mbps", bw);
  jr.add_metric("read_miss_3hop_dual_us", sim::to_us(miss3_dual));
  jr.add_metric("read_miss_2hop_dual_us", sim::to_us(miss2_dual));
  jr.add_metric("read_miss_3hop_single_us", sim::to_us(miss3_single));
  jr.write();
  return 0;
}
