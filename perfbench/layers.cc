#include "perfbench/layers.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/layout.h"
#include "src/irreg/inspector.h"
#include "src/proto/stache.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/network.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tempest/cluster.h"

namespace fgdsm::perfbench {
namespace {

constexpr int kReps = 7;            // samples per layer metric
constexpr double kMinRepSeconds = 0.02;  // batch length of fast calls

// Run `batch` repeatedly for kReps samples of at least kMinRepSeconds each;
// `batch` returns the number of operations it performed. Each sample is
// converted to `unit_per_second` units per operation (1e9 for ns, 1e6 for
// us) and recorded as one span.
Summary sample(SpanLog& log, const char* layer, const char* name,
               double unit_per_second, const std::function<double()>& batch) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    SpanLog::Scope span(log, layer, name);
    double ops = 0.0;
    const Clock::time_point t0 = Clock::now();
    double dt = 0.0;
    do {
      ops += batch();
      dt = seconds_since(t0);
    } while (dt < kMinRepSeconds);
    per_op.push_back(ops > 0 ? dt * unit_per_second / ops : 0.0);
  }
  return summarize(std::move(per_op));
}

// Self-rescheduling event: one schedule + one dispatch per hop, small
// enough for the engine's inline callback buffer.
struct Tick {
  sim::Engine* engine;
  std::uint64_t* left;
  void operator()() const {
    if (--*left > 0) engine->schedule(engine->now() + 10, Tick{engine, left});
  }
};

// A parallel loop with the bindings it runs under as node 0 (enclosing
// time-loop counters at their first iteration).
struct BoundLoop {
  const hpf::Program* prog;
  const hpf::ParallelLoop* loop;
  hpf::Bindings bind;
};

void collect_loops(const hpf::Program& prog,
                   const std::vector<hpf::Phase>& phases,
                   const hpf::Bindings& b, std::vector<BoundLoop>* out) {
  for (const hpf::Phase& ph : phases) {
    if (ph.kind == hpf::Phase::Kind::kParallelLoop) {
      out->push_back({&prog, ph.loop.get(), b});
    } else if (ph.kind == hpf::Phase::Kind::kTimeLoop) {
      hpf::Bindings inner = b;
      inner.set(ph.time->counter, 0);
      collect_loops(prog, ph.time->phases, inner, out);
    }
  }
}

hpf::Bindings node0_bindings(const hpf::Program& prog, int np) {
  hpf::Bindings b = prog.sizes;
  b.set(hpf::kSymNProcs, np);
  b.set(hpf::kSymProc, 0);
  return b;
}

std::vector<BoundLoop> loops_of(const std::vector<const hpf::Program*>& progs,
                                int np) {
  std::vector<BoundLoop> out;
  for (const hpf::Program* p : progs)
    collect_loops(*p, p->phases, node0_bindings(*p, np), &out);
  return out;
}

// Allocate every array of `prog` in the cluster's shared segment, as the
// executor does, and return their layouts.
core::LayoutMap place_arrays(tempest::Cluster& c, const hpf::Program& prog,
                             const hpf::Bindings& b) {
  core::LayoutMap layouts;
  for (const hpf::ArrayDecl& a : prog.arrays) {
    hpf::ArrayLayout lay;
    lay.name = a.name;
    for (const hpf::AffineExpr& e : a.extents) lay.extents.push_back(e.eval(b));
    lay.base = c.allocate(prog.name + "/" + a.name, lay.bytes());
    layouts[a.name] = std::move(lay);
  }
  return layouts;
}

tempest::ClusterConfig one_node(std::size_t block) {
  tempest::ClusterConfig cfg;
  cfg.nnodes = 1;
  cfg.block_size = block;
  return cfg;
}

// Node 0's first local iteration of `loop` (or the loop's lower bound when
// node 0 has none).
std::int64_t first_local_iter(const BoundLoop& l, int np) {
  const hpf::ConcreteInterval it =
      hpf::local_iters(*l.loop, *l.prog, l.bind, np, 0);
  return it.empty() ? l.loop->dist.lo.eval(l.bind) : it.lo;
}

// Loop bodies run on node memory outside the executor (the irregular
// inspector needs real index values to scan).
class LocalCtx final : public hpf::BodyCtx {
 public:
  LocalCtx(tempest::Node& node, const core::LayoutMap& layouts,
           const hpf::Bindings& b)
      : node_(node), layouts_(layouts), b_(b) {}
  std::int64_t dist() const override { return dist_; }
  std::int64_t sym(const std::string& name) const override {
    return b_.get(name);
  }
  double scalar(const std::string&) const override { return 0.0; }
  void set_scalar(const std::string&, double) override {}
  void contribute(double) override {}
  double* data(const std::string& array) override {
    return reinterpret_cast<double*>(node_.mem(layouts_.at(array).base));
  }
  const hpf::ArrayLayout& layout(const std::string& array) const override {
    return layouts_.at(array);
  }
  std::int64_t dist_ = 0;

 private:
  tempest::Node& node_;
  const core::LayoutMap& layouts_;
  const hpf::Bindings& b_;
};

}  // namespace

Summary sim_event_ns(SpanLog& log) {
  return sample(log, "sim", "event_chain", 1e9, [] {
    constexpr std::uint64_t kEvents = 100'000;
    sim::Engine e;
    std::uint64_t left = kEvents;
    e.schedule(0, Tick{&e, &left});
    e.run();
    return static_cast<double>(e.events_processed());
  });
}

Summary sim_fiber_switch_ns(SpanLog& log) {
  return sample(log, "sim", "task_round_trip", 1e9, [] {
    constexpr int kCharges = 10'000;
    sim::Engine e;
    e.set_lookahead(100);
    const auto body = [](sim::Task& t) {
      for (int i = 0; i < kCharges; ++i) t.charge(1000);
    };
    sim::Task a(e, "a", body);
    sim::Task b(e, "b", body);
    a.start(0);
    b.start(0);
    e.run();
    return 2.0 * kCharges;
  });
}

Summary sim_channel_send_ack_ns(SpanLog& log) {
  return sample(log, "sim", "channel_burst", 1e9, [] {
    constexpr std::size_t kMsgs = 10'000;
    sim::Engine engine;
    sim::CostModel costs;
    sim::Network net(engine, costs, 2);
    sim::ChannelConfig ch;
    ch.ack_type = 999;
    sim::ReliableChannel channel(engine, net, 2, ch);
    sim::Semaphore done;
    std::size_t delivered = 0;
    channel.attach(0, [](sim::Message&&, sim::Time) {});
    channel.attach(1, [&](sim::Message&&, sim::Time) {
      if (++delivered == kMsgs) done.post(engine.now());
    });
    // A live task keeps the channel in "work remains" mode until the whole
    // burst is delivered, as a compute task would.
    sim::Task waiter(engine, "waiter",
                     [&](sim::Task& self) { done.wait(self); });
    waiter.start(0);
    sim::Time t = 0;
    for (std::size_t i = 0; i < kMsgs; ++i) {
      sim::Message m;
      m.src = 0;
      m.dst = 1;
      m.type = 7;
      m.arg[0] = static_cast<std::int64_t>(i);
      t = channel.send(t, std::move(m));
    }
    engine.run();
    return static_cast<double>(kMsgs);
  });
}

Summary proto_read_miss_host_ns(SpanLog& log) {
  std::vector<double> per_miss;
  for (int r = 0; r < kReps; ++r) {
    SpanLog::Scope span(log, "proto", "read_miss_chain");
    tempest::ClusterConfig cfg;
    cfg.nnodes = 2;
    tempest::Cluster c(cfg);
    proto::Stache stache(c);
    const std::size_t bytes = 128 * cfg.page_size;
    const tempest::GAddr base = c.allocate("x", bytes);
    double host_s = 0.0;
    const util::RunStats rs = c.run([&](tempest::Node& n, sim::Task& t) {
      n.barrier(t);
      if (n.id() == 1) {
        const Clock::time_point t0 = Clock::now();
        for (tempest::GAddr a = base; a < base + bytes; a += cfg.block_size)
          if (c.home_of(c.block_of(a)) == 0) n.ensure_readable(t, a, 8);
        host_s = seconds_since(t0);
      }
      n.barrier(t);
    });
    const double misses = static_cast<double>(rs.node[1].read_misses);
    per_miss.push_back(misses > 0 ? host_s * 1e9 / misses : 0.0);
  }
  return summarize(std::move(per_miss));
}

CompilerTimes compiler_layers(const std::vector<const hpf::Program*>& progs,
                              int np, std::size_t block, SpanLog& log) {
  const std::vector<BoundLoop> loops = loops_of(progs, np);
  CompilerTimes out;
  const double nloops = static_cast<double>(loops.size());

  std::vector<std::vector<hpf::Transfer>> transfers(loops.size());
  out.analyze_transfers_us =
      sample(log, "hpf", "analyze_transfers", 1e6, [&] {
        for (std::size_t i = 0; i < loops.size(); ++i)
          transfers[i] = hpf::analyze_transfers(*loops[i].loop,
                                                *loops[i].prog,
                                                loops[i].bind, np);
        return nloops;
      });

  std::vector<std::int64_t> dist;
  for (const BoundLoop& l : loops) dist.push_back(first_local_iter(l, np));
  hpf::FootprintScratch scratch;
  hpf::ConcreteSection section;
  out.chunk_footprint_ns = sample(log, "hpf", "chunk_footprint", 1e9, [&] {
    double calls = 0.0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const BoundLoop& l = loops[i];
      for (const auto* refs : {&l.loop->reads, &l.loop->writes})
        for (const hpf::ArrayRef& ref : *refs) {
          hpf::chunk_footprint_into(*l.loop, ref, *l.prog, l.bind, dist[i],
                                    scratch, &section);
          calls += 1.0;
        }
    }
    return calls;
  });

  tempest::Cluster placement(one_node(block));
  std::map<const hpf::Program*, core::LayoutMap> layouts;
  for (const hpf::Program* p : progs)
    layouts[p] = place_arrays(placement, *p, node0_bindings(*p, np));
  out.plan_us = sample(log, "core", "plan_from_transfers", 1e6, [&] {
    for (std::size_t i = 0; i < loops.size(); ++i)
      core::plan_from_transfers(transfers[i], layouts.at(loops[i].prog),
                                /*me=*/0, block, /*block_align=*/true);
    return nloops;
  });
  return out;
}

Summary tempest_ensure_chunk_ns(const std::vector<const hpf::Program*>& progs,
                                int np, std::size_t block, SpanLog& log) {
  // One node homes every block, so each footprint is already accessible and
  // the call is the pure check the executor pays per chunk.
  tempest::Cluster c(one_node(block));
  proto::Stache stache(c);

  struct Chunk {
    std::vector<tempest::Node::Extent> reads, writes;
  };
  std::vector<Chunk> chunks;
  for (const hpf::Program* p : progs) {
    const hpf::Bindings b0 = node0_bindings(*p, np);
    const core::LayoutMap layouts = place_arrays(c, *p, b0);
    std::vector<BoundLoop> loops;
    collect_loops(*p, p->phases, b0, &loops);
    for (const BoundLoop& l : loops) {
      const std::int64_t dist = first_local_iter(l, np);
      Chunk ch;
      for (const auto& [refs, out] :
           {std::pair{&l.loop->reads, &ch.reads},
            std::pair{&l.loop->writes, &ch.writes}})
        for (const hpf::ArrayRef& ref : *refs) {
          const hpf::ConcreteSection s =
              hpf::chunk_footprint(*l.loop, ref, *p, l.bind, dist);
          if (s.empty()) continue;
          for (const hpf::Run& run : hpf::linearize(layouts.at(ref.array), s))
            out->push_back({run.addr, run.len});
        }
      chunks.push_back(std::move(ch));
    }
  }

  Summary result;
  c.run([&](tempest::Node& n, sim::Task& t) {
    result = sample(log, "tempest", "ensure_chunk", 1e9, [&] {
      for (const Chunk& ch : chunks) n.ensure_chunk(t, ch.reads, ch.writes);
      return static_cast<double>(chunks.size());
    });
  });
  return result;
}

Summary irreg_scan_us(const hpf::Program& spmv, int np, std::size_t block,
                      SpanLog& log) {
  std::vector<BoundLoop> loops;
  collect_loops(spmv, spmv.phases, node0_bindings(spmv, np), &loops);
  const auto irregular =
      std::find_if(loops.begin(), loops.end(), [](const BoundLoop& l) {
        return irreg::has_indirect(*l.loop);
      });
  if (irregular == loops.end()) return {};

  tempest::Cluster c(one_node(block));
  proto::Stache stache(c);
  const core::LayoutMap layouts = place_arrays(c, spmv, irregular->bind);

  Summary result;
  c.run([&](tempest::Node& n, sim::Task& t) {
    // Fill node 0's slice of the index arrays by running the loops that
    // precede the irregular one.
    LocalCtx ctx(n, layouts, irregular->bind);
    for (auto l = loops.begin(); l != irregular; ++l) {
      const hpf::ConcreteInterval it =
          hpf::local_iters(*l->loop, spmv, l->bind, np, 0);
      for (std::int64_t j = it.lo; j <= it.hi; j += it.stride) {
        ctx.dist_ = j;
        l->loop->body(ctx);
      }
    }
    irreg::ScanScratch scratch;
    result = sample(log, "irreg", "scan", 1e6, [&] {
      const irreg::ScanResult r =
          irreg::scan(*irregular->loop, spmv, irregular->bind, layouts, np,
                      n, t, /*ensure_index=*/false, &scratch);
      return r.elements_scanned > 0 ? 1.0 : 0.0;
    });
  });
  return result;
}

}  // namespace fgdsm::perfbench
