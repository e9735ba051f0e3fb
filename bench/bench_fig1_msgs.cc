// Figure 1 — protocol message counts for one producer-consumer block
// transfer: the default invalidation protocol's chain (read-request,
// put-data-request, put-data-response, read-response; plus write-request,
// invalidation, acknowledgement, write-grant on the next write) versus the
// compiler-directed direct-update message.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench/common.h"
#include "src/proto/stache.h"
#include "src/tempest/cluster.h"
#include "src/tempest/types.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::MsgType;
using tempest::Node;

struct Counts {
  std::uint64_t messages = 0;
  sim::Time per_iter_ns = 0;
};

// Producer p(=2) writes one block, consumer q(=3) reads it, repeatedly, with
// the home at node 0 (3-hop). Returns protocol messages per iteration in
// steady state.
Counts measure(bool optimized, int iters) {
  ClusterConfig cfg;
  cfg.nnodes = 4;
  cfg.block_size = 128;
  Cluster c(cfg);
  proto::Stache proto(c);
  const tempest::GAddr a = c.allocate("x", 4096);  // home node 0
  const tempest::BlockId b = c.block_of(a);
  // Count protocol messages directly by wrapping every coherence/CCC
  // handler (barrier and reduction traffic excluded by construction).
  std::uint64_t proto_msgs = 0;
  for (MsgType mt :
       {MsgType::kReadReq, MsgType::kPutDataReq, MsgType::kPutDataResp,
        MsgType::kReadResp, MsgType::kWriteReq, MsgType::kInval,
        MsgType::kInvalAck, MsgType::kWriteGrant, MsgType::kFetchExclReq,
        MsgType::kFetchExclResp, MsgType::kDirectData}) {
    const Cluster::Handler orig = c.handler(mt);
    c.register_handler(mt, [&proto_msgs, orig](Node& n, sim::Message& m,
                                               tempest::HandlerClock& clk) {
      ++proto_msgs;
      orig(n, m, clk);
    });
  }
  std::uint64_t msgs_before = 0;
  sim::Time time_before = 0;
  Counts out;
  c.run([&](Node& n, sim::Task& t) {
    for (int it = 0; it < iters; ++it) {
      if (it == 1 && n.id() == 2) {  // skip the cold iteration
        msgs_before = proto_msgs;
        time_before = t.now();
      }
      if (optimized) {
        if (n.id() == 2) {
          // Steady state: producer already exclusive (mk_writable elided).
          n.ensure_writable(t, a, 8);
          double v = it;
          std::memcpy(n.mem(a), &v, 8);
          n.note_writes(a, 8);
        }
        if (n.id() == 3 && it == 0) proto.implicit_writable(n, t, b, b);
        n.barrier(t);
        if (n.id() == 2)
          proto.send_blocks(n, t, a, cfg.block_size, 3, cfg.block_size);
        if (n.id() == 3) {
          proto.ready_to_recv(n, t, 1);
          double v;
          std::memcpy(&v, n.mem(a), 8);
          (void)v;
        }
        n.barrier(t);
      } else {
        if (n.id() == 2) {
          n.ensure_writable(t, a, 8);
          double v = it;
          std::memcpy(n.mem(a), &v, 8);
          n.note_writes(a, 8);
        }
        n.barrier(t);
        if (n.id() == 3) n.ensure_readable(t, a, 8);
        n.barrier(t);
      }
    }
    if (n.id() == 2) {
      out.messages = (proto_msgs - msgs_before) / (iters - 1);
      out.per_iter_ns = (t.now() - time_before) / (iters - 1);
    }
  });
  return out;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) {
  using namespace fgdsm;
  // Accepts the common flags (--jobs etc.) for uniform driving by
  // run_experiments.sh; the producer-consumer pair is fixed-size.
  const bench::BenchConfig bc = bench::BenchConfig::from_args(argc, argv, {});
  const auto def = measure(false, 9);
  const auto opt = measure(true, 9);
  std::printf("Figure 1: protocol messages per producer-consumer transfer\n");
  util::Table t({"scheme", "msgs/iteration", "paper", "time/iter (us)"});
  t.add_row({"default protocol (Fig 1a)",
             util::Table::cell(static_cast<std::int64_t>(def.messages)),
             "8 (4 read chain + 4 write chain)",
             util::Table::cell(sim::to_us(def.per_iter_ns), 1)});
  t.add_row({"compiler-directed (Fig 1b)",
             util::Table::cell(static_cast<std::int64_t>(opt.messages)),
             "1 direct update",
             util::Table::cell(sim::to_us(opt.per_iter_ns), 1)});
  t.print(std::cout);

  bench::JsonReport jr("fig1_msgs", bc);
  jr.add_metric("default_msgs_per_iter", static_cast<double>(def.messages));
  jr.add_metric("default_us_per_iter", sim::to_us(def.per_iter_ns));
  jr.add_metric("opt_msgs_per_iter", static_cast<double>(opt.messages));
  jr.add_metric("opt_us_per_iter", sim::to_us(opt.per_iter_ns));
  jr.write();
  return 0;
}
