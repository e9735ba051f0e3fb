#include "src/proto/stache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "src/util/assert.h"
#include "src/util/log.h"

namespace fgdsm::proto {

Stache::Stache(tempest::Cluster& cluster)
    : cluster_(cluster),
      dir_(static_cast<std::size_t>(cluster.nnodes()),
           Directory{{}, SharerArena(cluster.nnodes())}),
      nodes_(static_cast<std::size_t>(cluster.nnodes())),
      ccc_open_(static_cast<std::size_t>(cluster.nnodes())),
      snap_(static_cast<std::size_t>(cluster.nnodes())) {
  // Sharer sets spill past 64 nodes lazily (SharerSet); the dirty-word mask
  // below is a genuine geometry limit (block <= 512 bytes), not a cluster
  // size limit.
  FGDSM_ASSERT_MSG(cluster.words_per_block() <= 64,
                   "dirty masks are 64 bits (block <= 512 bytes)");
  for (NodeState& ns : nodes_) {
    ns.miss_sem.set_name("read miss");
    ns.drain_sem.set_name("transaction drain");
    ns.recv_sem.set_name("ready_to_recv");
  }
  auto bind = [this](void (Stache::*fn)(Node&, sim::Message&,
                                        HandlerClock&)) {
    return [this, fn](Node& n, sim::Message& m, HandlerClock& c) {
      (this->*fn)(n, m, c);
    };
  };
  cluster.register_handler(MsgType::kReadReq, bind(&Stache::h_request));
  cluster.register_handler(MsgType::kWriteReq, bind(&Stache::h_request));
  cluster.register_handler(MsgType::kFetchExclReq, bind(&Stache::h_request));
  cluster.register_handler(MsgType::kPutDataReq,
                           bind(&Stache::h_put_data_req));
  cluster.register_handler(MsgType::kPutDataResp,
                           bind(&Stache::h_put_data_resp));
  cluster.register_handler(MsgType::kReadResp, bind(&Stache::h_read_resp));
  cluster.register_handler(MsgType::kInval, bind(&Stache::h_inval));
  cluster.register_handler(MsgType::kInvalAck, bind(&Stache::h_inval_ack));
  cluster.register_handler(MsgType::kWriteGrant,
                           bind(&Stache::h_write_grant));
  cluster.register_handler(MsgType::kFetchExclResp,
                           bind(&Stache::h_fetch_excl_resp));
  cluster.register_handler(MsgType::kDirectData, bind(&Stache::h_ccc_data));
  cluster.register_handler(MsgType::kCccFlush, bind(&Stache::h_ccc_data));
  for (int i = 0; i < cluster.nnodes(); ++i)
    cluster.node(i).protocol = this;
  // Crash recovery: directories, compiler-contracted opens and the drain
  // semaphore are host state the cluster checkpoint cannot see. A
  // checkpoint's barrier has drained every transaction; drain() stops
  // waiting once none is outstanding, so posts from transactions that
  // completed meanwhile stay counted in drain_sem. Each capture builds a
  // fresh snapshot: under glibc's dynamic mmap threshold, assigning into the
  // last one raised chaos8_st4's peak RSS by about 1 MiB (EXPERIMENTS.md,
  // "One epoch inbox and one checkpoint hook").
  cluster.register_host_state_hook(
      {[this](int n) {
         const std::size_t i = static_cast<std::size_t>(n);
         for (const DirEntry& e : dir_[i].entries)
           FGDSM_ASSERT_MSG(!e.busy && e.queue_empty(),
                            "checkpoint capture at a non-quiescent "
                            "directory (node " << n << ")");
         const NodeState& st = nodes_[i];
         FGDSM_ASSERT_MSG(st.outstanding == 0 && st.upgrade.empty() &&
                              st.miss_sem.count() == 0 &&
                              st.recv_sem.count() == 0,
                          "checkpoint capture with undrained protocol state "
                          "at node "
                              << n << ": " << st.outstanding
                              << " outstanding transactions, "
                              << st.upgrade.size() << " pending upgrades, "
                              << "read miss count " << st.miss_sem.count()
                              << ", ready_to_recv count "
                              << st.recv_sem.count());
         snap_[i] = NodeSnapshot{dir_[i], ccc_open_[i], st.drain_sem.count()};
       },
       [this](int n) {
         const std::size_t i = static_cast<std::size_t>(n);
         const NodeSnapshot& s = snap_[i];
         NodeState& st = nodes_[i];
         dir_[i] = s.dir;
         ccc_open_[i] = s.ccc_open;
         st.outstanding = 0;
         st.upgrade.clear();
         st.miss_sem.restore_for_recovery(0);
         st.drain_sem.restore_for_recovery(s.drain_sem);
         st.recv_sem.restore_for_recovery(0);
       }});
}

std::uint64_t Stache::full_mask() const {
  const std::size_t w = cluster_.words_per_block();
  return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

Stache::PendingUpgrade* Stache::find_upgrade(NodeState& st, BlockId b) {
  for (PendingUpgrade& up : st.upgrade)
    if (up.b == b) return &up;
  return nullptr;
}

const Stache::PendingUpgrade* Stache::find_upgrade(const NodeState& st,
                                                   BlockId b) {
  for (const PendingUpgrade& up : st.upgrade)
    if (up.b == b) return &up;
  return nullptr;
}

std::uint64_t Stache::pending_mask_of(int node, BlockId b) const {
  const PendingUpgrade* up =
      find_upgrade(nodes_[static_cast<std::size_t>(node)], b);
  return up == nullptr ? 0 : up->mask;
}

void Stache::reset_pending_mask(int node, BlockId b) {
  if (PendingUpgrade* up =
          find_upgrade(nodes_[static_cast<std::size_t>(node)], b))
    up->mask = 0;
}

Stache::DirEntry& Stache::dir(Node& home, BlockId b) {
  auto& d = dir_[static_cast<std::size_t>(home.id())].entries;
  const std::size_t idx = dir_index(b);
  if (idx >= d.size()) d.resize(idx + 1);
  return d[idx];
}

const Stache::DirEntry* Stache::dir_find(int home, BlockId b) const {
  const auto& d = dir_[static_cast<std::size_t>(home)].entries;
  const std::size_t idx = dir_index(b);
  return idx < d.size() ? &d[idx] : nullptr;
}

Stache::DirSnapshot Stache::dir_snapshot(BlockId b) const {
  const DirEntry* e = dir_find(cluster_.home_of(b), b);
  if (e == nullptr) return DirSnapshot{};
  return DirSnapshot{e->state, e->sharers.low64(), e->owner, e->busy};
}

// ---------------------------------------------------------------------------
// Fault entry points (compute-task context)
// ---------------------------------------------------------------------------

void Stache::on_read_fault(Node& node, sim::Task& task, BlockId b) {
  NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
  task.charge(cluster_.costs().fault_cost);
  sim::Message m;
  m.dst = cluster_.home_of(b);
  m.type = static_cast<std::uint16_t>(MsgType::kReadReq);
  m.addr = cluster_.block_addr(b);
  node.send(task, std::move(m));
  st.miss_sem.wait(task);  // posted by h_read_resp
}

void Stache::issue_upgrade(Node& node, sim::Task& task, BlockId b) {
  NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
  FGDSM_LOG("stache", "t=" << task.now() << " upgrade@" << node.id()
                           << " blk=" << b);
  node.set_access(b, Access::kReadWrite);  // eager: do not wait for grant
  PendingUpgrade* up = find_upgrade(st, b);
  if (up == nullptr) {
    st.upgrade.push_back(PendingUpgrade{b, 0, 0});
    up = &st.upgrade.back();
  }
  ++up->reqs;
  ++st.outstanding;
  sim::Message m;
  m.dst = cluster_.home_of(b);
  m.type = static_cast<std::uint16_t>(MsgType::kWriteReq);
  m.addr = cluster_.block_addr(b);
  node.send(task, std::move(m));
}

void Stache::on_write_fault(Node& node, sim::Task& task, BlockId b) {
  task.charge(cluster_.costs().fault_cost);
  if (node.access(b) == Access::kInvalid) {
    // Cold or conflict write miss: fetch the data first (a store writes only
    // part of a block; the rest must be valid for later loads), then upgrade.
    NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
    sim::Message m;
    m.dst = cluster_.home_of(b);
    m.type = static_cast<std::uint16_t>(MsgType::kReadReq);
    m.addr = cluster_.block_addr(b);
    node.send(task, std::move(m));
    st.miss_sem.wait(task);
  }
  // The fetched copy can be revoked at this very instant (a racing
  // invalidation handler); only upgrade a copy we actually hold. The caller
  // (ensure_writable) rescans and retries otherwise.
  if (node.access(b) == Access::kReadOnly) issue_upgrade(node, task, b);
}

void Stache::drain(Node& node, sim::Task& task) {
  NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
  while (st.outstanding > 0) st.drain_sem.wait(task);
}

void Stache::note_writes(Node& node, GAddr addr, std::size_t len) {
  NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
  if (st.upgrade.empty() || len == 0) return;
  const std::size_t bs = cluster_.block_size();
  const BlockId first = cluster_.block_of(addr);
  const BlockId last = cluster_.block_of(addr + len - 1);
  for (BlockId b = first; b <= last; ++b) {
    PendingUpgrade* up = find_upgrade(st, b);
    if (up == nullptr) continue;
    FGDSM_LOG("stache", "note_writes@" << node.id() << " blk=" << b
                                       << " addr=" << addr << " len=" << len);
    const GAddr bstart = cluster_.block_addr(b);
    const GAddr lo = addr > bstart ? addr : bstart;
    const GAddr hi = (addr + len) < (bstart + bs) ? (addr + len)
                                                  : (bstart + bs);
    const std::size_t w0 = (lo - bstart) / 8;
    const std::size_t w1 = (hi - 1 - bstart) / 8;
    for (std::size_t w = w0; w <= w1; ++w)
      up->mask |= std::uint64_t{1} << w;
  }
}

// ---------------------------------------------------------------------------
// Home-side directory machinery
// ---------------------------------------------------------------------------

void Stache::send_block_msg(Node& from, HandlerClock& clk, int dst,
                            MsgType type, BlockId b, std::uint64_t mask,
                            bool with_data) {
  sim::Message m;
  m.dst = dst;
  m.type = static_cast<std::uint16_t>(type);
  m.addr = cluster_.block_addr(b);
  m.arg[0] = static_cast<std::int64_t>(mask);
  if (with_data) {
    m.payload = cluster_.payload_pool().acquire(cluster_.block_size());
    std::memcpy(m.payload.mutable_data(), from.mem(m.addr),
                cluster_.block_size());
    clk.charge(cluster_.costs().copy_time(
        static_cast<std::int64_t>(cluster_.block_size())));
  }
  from.send_from_handler(clk, std::move(m));
}

// kReadReq, kWriteReq and kFetchExclReq: queued while the entry is busy,
// serviced otherwise.
void Stache::h_request(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  FGDSM_DCHECK(cluster_.home_of(b) == self.id());
  DirEntry& e = dir(self, b);
  clk.charge(cluster_.costs().dir_lookup_cost);
  const MsgType type = static_cast<MsgType>(m.type);
  if (e.busy) {
    e.queue_push({type, m.src});
    return;
  }
  service(self, type, m.src, b, clk);
}

void Stache::service(Node& home, MsgType type, int requester, BlockId b,
                     HandlerClock& clk) {
  DirEntry& e = dir(home, b);
  FGDSM_DCHECK(!e.busy);
  const int self = home.id();
  SharerArena& arena = spill(home);
  FGDSM_LOG("stache", "t=" << clk.t << " service blk=" << b << " type="
                           << static_cast<int>(type) << " req=" << requester
                           << " state=" << static_cast<int>(e.state)
                           << " sharers=" << e.sharers.low64() << " owner="
                           << e.owner);

  switch (type) {
    case MsgType::kReadReq: {
      switch (e.state) {
        case DirState::kIdle:
          // Home memory is authoritative. If the home still holds the block
          // writable, downgrade it (it becomes an implicit sharer) so its
          // future writes fault and invalidate the new reader.
          if (home.access(b) == Access::kReadWrite) {
            home.set_access(b, Access::kReadOnly);
            clk.charge(cluster_.costs().access_change_cost);
            e.sharers.add(self, arena);
          }
          e.state = DirState::kShared;
          e.sharers.add(requester, arena);
          send_block_msg(home, clk, requester, MsgType::kReadResp, b, 0,
                         /*with_data=*/true);
          break;
        case DirState::kShared:
          e.sharers.add(requester, arena);
          send_block_msg(home, clk, requester, MsgType::kReadResp, b, 0,
                         /*with_data=*/true);
          break;
        case DirState::kExcl: {
          FGDSM_ASSERT_MSG(e.owner != requester,
                           "read fault from the exclusive owner (block "
                               << b << ", node " << requester << ")");
          if (e.owner == self) {
            // Home itself is the owner: downgrade in place, serve from
            // memory (no recall messages needed).
            FGDSM_DCHECK(home.access(b) == Access::kReadWrite);
            home.set_access(b, Access::kReadOnly);
            clk.charge(cluster_.costs().access_change_cost);
            reset_pending_mask(self, b);
            e.state = DirState::kShared;
            e.sharers.clear(arena);
            e.sharers.add(self, arena);
            e.sharers.add(requester, arena);
            e.owner = -1;
            send_block_msg(home, clk, requester, MsgType::kReadResp, b, 0,
                           /*with_data=*/true);
          } else {
            e.busy = true;
            e.txn = Txn{Txn::Kind::kRead, requester, 1, 0};
            send_block_msg(home, clk, e.owner, MsgType::kPutDataReq, b, 0,
                           /*with_data=*/false);
          }
          break;
        }
      }
      break;
    }

    case MsgType::kWriteReq: {
      // Legitimate upgrades come from current sharers; anything else means
      // the requester's copy was invalidated while this request was in
      // flight — deny (its dirty words already travelled with the
      // invalidation ack).
      if (e.state != DirState::kShared ||
          !e.sharers.contains(requester, arena)) {
        sim::Message g;
        g.dst = requester;
        g.type = static_cast<std::uint16_t>(MsgType::kWriteGrant);
        g.addr = cluster_.block_addr(b);
        g.arg[1] = 1;  // denied
        home.send_from_handler(clk, std::move(g));
        break;
      }
      const int ninval = e.sharers.count(arena) - 1;  // all but requester
      if (ninval == 0) {
        e.state = DirState::kExcl;
        e.owner = requester;
        e.sharers.clear(arena);
        sim::Message g;
        g.dst = requester;
        g.type = static_cast<std::uint16_t>(MsgType::kWriteGrant);
        g.addr = cluster_.block_addr(b);
        home.send_from_handler(clk, std::move(g));
        break;
      }
      e.busy = true;
      e.txn = Txn{Txn::Kind::kWrite, requester, ninval, 0};
      e.sharers.for_each(arena, [&](int n) {
        if (n == requester) return;
        send_block_msg(home, clk, n, MsgType::kInval, b, 0,
                       /*with_data=*/false);
      });
      break;
    }

    case MsgType::kFetchExclReq: {
      switch (e.state) {
        case DirState::kIdle: {
          FGDSM_ASSERT_MSG(requester != self,
                           "fetch-exclusive from home on an idle block");
          if (home.access(b) != Access::kInvalid) {
            home.set_access(b, Access::kInvalid);
            clk.charge(cluster_.costs().access_change_cost);
          }
          reset_pending_mask(self, b);
          e.state = DirState::kExcl;
          e.owner = requester;
          e.sharers.clear(arena);
          send_block_msg(home, clk, requester, MsgType::kFetchExclResp, b, 0,
                         /*with_data=*/true);
          break;
        }
        case DirState::kShared: {
          // Every sharer but the requester loses its copy. The home's own
          // read-only copy is invalidated inline (its memory is the
          // authoritative storage; no message needed); the others get an
          // invalidation each.
          const bool home_copy =
              self != requester && e.sharers.contains(self, arena);
          if (home_copy) {
            home.set_access(b, Access::kInvalid);
            clk.charge(cluster_.costs().access_change_cost);
            reset_pending_mask(self, b);
          }
          const int ninval = e.sharers.count(arena) -
                             (e.sharers.contains(requester, arena) ? 1 : 0) -
                             (home_copy ? 1 : 0);
          if (ninval == 0) {
            e.state = DirState::kExcl;
            e.owner = requester;
            e.sharers.clear(arena);
            send_block_msg(home, clk, requester, MsgType::kFetchExclResp, b,
                           0, /*with_data=*/true);
            break;
          }
          e.busy = true;
          e.txn = Txn{Txn::Kind::kFetchExcl, requester, ninval, 0};
          e.sharers.for_each(arena, [&](int n) {
            if (n == requester || n == self) return;
            send_block_msg(home, clk, n, MsgType::kInval, b, 0,
                           /*with_data=*/false);
          });
          e.sharers.clear(arena);
          break;
        }
        case DirState::kExcl: {
          FGDSM_ASSERT_MSG(e.owner != requester,
                           "fetch-exclusive from current owner (block " << b
                                                                        << ")");
          if (e.owner == self) {
            FGDSM_DCHECK(home.access(b) == Access::kReadWrite);
            home.set_access(b, Access::kInvalid);
            clk.charge(cluster_.costs().access_change_cost);
            reset_pending_mask(self, b);
            e.owner = requester;
            send_block_msg(home, clk, requester, MsgType::kFetchExclResp, b,
                           0, /*with_data=*/true);
          } else {
            e.busy = true;
            e.txn = Txn{Txn::Kind::kFetchExcl, requester, 1, 0};
            const int prev = e.owner;
            e.owner = -1;
            send_block_msg(home, clk, prev, MsgType::kInval, b, 0,
                           /*with_data=*/false);
          }
          break;
        }
      }
      break;
    }

    default:
      FGDSM_ASSERT_MSG(false, "unexpected request type in service()");
  }
}

void Stache::h_put_data_req(Node& self, sim::Message& m, HandlerClock& clk) {
  // We are the exclusive owner; the home recalls the data for a reader.
  const BlockId b = cluster_.block_of(m.addr);
  FGDSM_LOG("stache", "t=" << clk.t << " putdatareq@" << self.id() << " blk="
                           << b);
  FGDSM_ASSERT_MSG(self.access(b) == Access::kReadWrite,
                   "put-data request at non-owner (block " << b << ")");
  self.set_access(b, Access::kReadOnly);
  clk.charge(cluster_.costs().access_change_cost);
  // A granted owner's copy is complete (see grant fix-up), so it carries
  // full-block authority back to the home.
  send_block_msg(self, clk, m.src, MsgType::kPutDataResp, b, full_mask(),
                 /*with_data=*/true);
}

void Stache::apply_masked_words(Node& dst, BlockId b, std::uint64_t mask,
                                const sim::Payload& payload) {
  const GAddr base = cluster_.block_addr(b);
  const std::size_t words = cluster_.words_per_block();
  FGDSM_DCHECK(payload.size() == cluster_.block_size());
  for (std::size_t w = 0; w < words; ++w) {
    if ((mask & (std::uint64_t{1} << w)) == 0) continue;
    std::memcpy(dst.mem(base + w * 8), payload.data() + w * 8, 8);
  }
}

void Stache::h_put_data_resp(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  DirEntry& e = dir(self, b);
  FGDSM_DCHECK(e.busy && e.txn.kind == Txn::Kind::kRead);
  // The home's own in-flight eager writes live directly in home memory (the
  // home's copy *is* the storage); never let an incoming flush stomp them.
  apply_masked_words(self, b,
                     static_cast<std::uint64_t>(m.arg[0]) &
                         ~pending_mask_of(self.id(), b),
                     m.payload);
  clk.charge(cluster_.costs().copy_time(
      static_cast<std::int64_t>(cluster_.block_size())));
  const int prev_owner = e.owner;
  SharerArena& arena = spill(self);
  e.state = DirState::kShared;
  e.sharers.clear(arena);
  e.sharers.add(prev_owner, arena);
  e.sharers.add(e.txn.requester, arena);
  e.owner = -1;
  send_block_msg(self, clk, e.txn.requester, MsgType::kReadResp, b, 0,
                 /*with_data=*/true);
  e.busy = false;
  pump_queue(self, b, clk);
}

void Stache::h_read_resp(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  FGDSM_LOG("stache", "t=" << clk.t << " readresp@" << self.id() << " blk="
                           << b);
  FGDSM_DCHECK(self.access(b) == Access::kInvalid);
  std::memcpy(self.mem(m.addr), m.payload.data(), cluster_.block_size());
  self.set_access(b, Access::kReadOnly);
  clk.charge(cluster_.costs().copy_time(
                 static_cast<std::int64_t>(cluster_.block_size())) +
             cluster_.costs().access_change_cost);
  nodes_[static_cast<std::size_t>(self.id())].miss_sem.post(clk.t);
}

void Stache::h_inval(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  FGDSM_LOG("stache", "t=" << clk.t << " inval@" << self.id() << " blk=" << b
                           << " tag=" << static_cast<int>(self.access(b))
                           << " pend=" << pending_mask_of(self.id(), b));
  NodeState& st = nodes_[static_cast<std::size_t>(self.id())];
  ++self.stats.invalidations_received;
  std::uint64_t mask = 0;
  if (PendingUpgrade* up = find_upgrade(st, b)) {
    // Eager upgrade in flight: ship the words we wrote since the last fetch
    // so they are not lost, and reset the mask — the in-flight requests
    // still get their grant/deny answers, counted by up->reqs.
    mask = up->mask;
    up->mask = 0;
  } else if (self.access(b) == Access::kReadWrite) {
    // Granted exclusive copy: complete, full authority.
    mask = full_mask();
  }
  if (self.access(b) != Access::kInvalid) {
    self.set_access(b, Access::kInvalid);
    clk.charge(cluster_.costs().access_change_cost);
  }
  send_block_msg(self, clk, m.src, MsgType::kInvalAck, b, mask,
                 /*with_data=*/mask != 0);
}

void Stache::h_inval_ack(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  DirEntry& e = dir(self, b);
  FGDSM_DCHECK(e.busy);
  const std::uint64_t mask = static_cast<std::uint64_t>(m.arg[0]);
  FGDSM_LOG("stache", "t=" << clk.t << " invalack@" << self.id() << " blk="
                           << b << " from=" << m.src << " mask=" << mask);
  if (mask != 0) {
    // Skip words the home itself has dirtied under a live eager upgrade
    // (home memory is the home's copy; see h_put_data_resp).
    apply_masked_words(self, b, mask & ~pending_mask_of(self.id(), b),
                       m.payload);
    clk.charge(cluster_.costs().copy_time(
        static_cast<std::int64_t>(cluster_.block_size())));
    e.txn.fixup_mask |= mask;
  }
  FGDSM_DCHECK(e.txn.acks_needed > 0);
  --e.txn.acks_needed;
  finish_txn_if_done(self, b, e, clk);
}

void Stache::finish_txn_if_done(Node& home, BlockId b, DirEntry& e,
                                HandlerClock& clk) {
  if (e.txn.acks_needed > 0) return;
  switch (e.txn.kind) {
    case Txn::Kind::kWrite: {
      e.state = DirState::kExcl;
      e.owner = e.txn.requester;
      e.sharers.clear(spill(home));
      // Grant; forward any words merged from concurrently-invalidated
      // writers so the new owner's copy becomes complete.
      send_block_msg(home, clk, e.txn.requester, MsgType::kWriteGrant, b,
                     e.txn.fixup_mask, /*with_data=*/e.txn.fixup_mask != 0);
      break;
    }
    case Txn::Kind::kFetchExcl: {
      e.state = DirState::kExcl;
      e.owner = e.txn.requester;
      e.sharers.clear(spill(home));
      send_block_msg(home, clk, e.txn.requester, MsgType::kFetchExclResp, b,
                     0, /*with_data=*/true);
      break;
    }
    case Txn::Kind::kRead:
      FGDSM_ASSERT_MSG(false, "read transactions complete in put_data_resp");
  }
  e.busy = false;
  pump_queue(home, b, clk);
}

void Stache::pump_queue(Node& home, BlockId b, HandlerClock& clk) {
  DirEntry& e = dir(home, b);
  while (!e.busy && !e.queue_empty()) {
    const QueuedReq req = e.queue_pop();
    clk.charge(cluster_.costs().dir_lookup_cost);
    service(home, req.type, req.requester, b, clk);
  }
}

void Stache::h_write_grant(Node& self, sim::Message& m, HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  NodeState& st = nodes_[static_cast<std::size_t>(self.id())];
  PendingUpgrade* up = find_upgrade(st, b);
  FGDSM_ASSERT_MSG(up != nullptr,
                   "grant/deny without in-flight upgrade (block " << b
                                                                  << ")");
  const bool denied = m.arg[1] != 0;
  FGDSM_LOG("stache", "t=" << clk.t << " grant@" << self.id() << " blk=" << b
                           << " denied=" << denied << " fixup=" << m.arg[0]
                           << " mymask=" << up->mask << " reqs="
                           << up->reqs);
  if (!denied) {
    const std::uint64_t fixup = static_cast<std::uint64_t>(m.arg[0]);
    if (fixup != 0) {
      // Apply every forwarded word we did not write ourselves.
      apply_masked_words(self, b, fixup & ~up->mask, m.payload);
      clk.charge(cluster_.costs().copy_time(
          static_cast<std::int64_t>(cluster_.block_size())));
    }
    FGDSM_DCHECK(self.access(b) == Access::kReadWrite);
  }
  if (--up->reqs == 0) {
    *up = st.upgrade.back();  // swap-erase; order is irrelevant
    st.upgrade.pop_back();
  }
  FGDSM_DCHECK(st.outstanding > 0);
  --st.outstanding;
  st.drain_sem.post(clk.t);
}

void Stache::h_fetch_excl_resp(Node& self, sim::Message& m,
                               HandlerClock& clk) {
  const BlockId b = cluster_.block_of(m.addr);
  NodeState& st = nodes_[static_cast<std::size_t>(self.id())];
  std::memcpy(self.mem(m.addr), m.payload.data(), cluster_.block_size());
  self.set_access(b, Access::kReadWrite);
  clk.charge(cluster_.costs().copy_time(
                 static_cast<std::int64_t>(cluster_.block_size())) +
             cluster_.costs().access_change_cost);
  FGDSM_DCHECK(st.outstanding > 0);
  --st.outstanding;
  st.drain_sem.post(clk.t);
}

// ---------------------------------------------------------------------------
// Compiler-directed primitives
// ---------------------------------------------------------------------------

void Stache::mk_writable(Node& node, sim::Task& task, BlockId first,
                         BlockId last) {
  NodeState& st = nodes_[static_cast<std::size_t>(node.id())];
  ++node.stats.ccc_runtime_calls;
  task.charge(cluster_.costs().ccc_call_overhead);
  for (BlockId b = first; b <= last; ++b) {
    task.charge(cluster_.costs().ccc_per_block_cost);
    switch (node.access(b)) {
      case Access::kReadWrite:
        break;  // nothing to do (the common §4.3 case)
      case Access::kReadOnly:
        issue_upgrade(node, task, b);
        break;
      case Access::kInvalid: {
        ++st.outstanding;
        sim::Message m;
        m.dst = cluster_.home_of(b);
        m.type = static_cast<std::uint16_t>(MsgType::kFetchExclReq);
        m.addr = cluster_.block_addr(b);
        node.send(task, std::move(m));
        break;
      }
    }
  }
  // Pipelined: no wait here. The barrier that follows (Fig. 2) drains.
}

void Stache::implicit_writable(Node& node, sim::Task& task, BlockId first,
                               BlockId last) {
  ++node.stats.ccc_runtime_calls;
  task.charge(cluster_.costs().ccc_call_overhead);
  for (BlockId b = first; b <= last; ++b) {
    task.charge(cluster_.costs().ccc_per_block_cost +
                cluster_.costs().access_change_cost);
    node.set_access(b, Access::kReadWrite);
    if (cluster_.config().check_coherence)
      ccc_open_[static_cast<std::size_t>(node.id())].insert(b);
  }
}

void Stache::implicit_invalidate(Node& node, sim::Task& task, BlockId first,
                                 BlockId last) {
  ++node.stats.ccc_runtime_calls;
  task.charge(cluster_.costs().ccc_call_overhead);
  for (BlockId b = first; b <= last; ++b) {
    task.charge(cluster_.costs().ccc_per_block_cost +
                cluster_.costs().access_change_cost);
    node.set_access(b, Access::kInvalid);
    if (cluster_.config().check_coherence)
      ccc_open_[static_cast<std::size_t>(node.id())].erase(b);
  }
}

std::int64_t Stache::blocks_in(GAddr addr, std::size_t len) const {
  FGDSM_ASSERT_MSG(addr % cluster_.block_size() == 0 &&
                       len % cluster_.block_size() == 0,
                   "compiler-controlled range must be block-aligned");
  return static_cast<std::int64_t>(len / cluster_.block_size());
}

void Stache::send_blocks(Node& node, sim::Task& task, GAddr addr,
                         std::size_t len, int dst, std::size_t max_payload) {
  if (len == 0) return;
  FGDSM_LOG("ccc", "send_blocks@" << node.id() << " addr=" << addr
                                  << " len=" << len << " dst=" << dst
                                  << " t=" << task.now());
  send_ccc(node, task, MsgType::kDirectData, addr, len, dst, max_payload);
}

void Stache::ready_to_recv(Node& node, sim::Task& task,
                           std::int64_t nblocks) {
  ++node.stats.ccc_runtime_calls;
  task.charge(cluster_.costs().ccc_call_overhead);
  if (nblocks > 0)
    nodes_[static_cast<std::size_t>(node.id())].recv_sem.wait(task, nblocks);
}

void Stache::ccc_flush(Node& node, sim::Task& task, GAddr addr,
                       std::size_t len, int owner, std::size_t max_payload) {
  if (len == 0) return;
  FGDSM_LOG("ccc", "ccc_flush@" << node.id() << " addr=" << addr << " len="
                                << len << " owner=" << owner << " t="
                                << task.now());
  send_ccc(node, task, MsgType::kCccFlush, addr, len, owner, max_payload);
}

void Stache::send_ccc(Node& node, sim::Task& task, MsgType type, GAddr addr,
                      std::size_t len, int dst, std::size_t max_payload) {
  const std::int64_t nblocks = blocks_in(addr, len);
  ++node.stats.ccc_runtime_calls;
  task.charge(cluster_.costs().ccc_call_overhead);
  FGDSM_ASSERT(max_payload >= cluster_.block_size() &&
               max_payload % cluster_.block_size() == 0);
  FGDSM_ASSERT_MSG(dst != node.id(), to_string(type) << " to self");
  std::size_t off = 0;
  while (off < len) {
    const std::size_t chunk = std::min(max_payload, len - off);
    sim::Message m;
    m.dst = dst;
    m.type = static_cast<std::uint16_t>(type);
    m.addr = addr + off;
    m.arg[0] = static_cast<std::int64_t>(chunk / cluster_.block_size());
    m.payload = cluster_.payload_pool().acquire(chunk);
    std::memcpy(m.payload.mutable_data(), node.mem(addr + off), chunk);
    node.send(task, std::move(m));
    ++node.stats.ccc_messages_sent;
    off += chunk;
  }
  node.stats.ccc_blocks_sent += static_cast<std::uint64_t>(nblocks);
}

// kDirectData and kCccFlush: sender-initiated data for a reader, or a
// non-owner writer's results returning to the owner. By the compiler
// contract the blocks are writable here — opened with implicit_writable
// before the transfer barrier, or the owner's exclusive copy — so the
// bytes are stored as they are, and ready_to_recv counts the blocks.
void Stache::h_ccc_data(Node& self, sim::Message& m, HandlerClock& clk) {
  FGDSM_LOG("ccc", to_string(static_cast<MsgType>(m.type))
                       << "@" << self.id() << " addr=" << m.addr
                       << " len=" << m.payload.size() << " t=" << clk.t);
  const BlockId first = cluster_.block_of(m.addr);
  const std::int64_t nblocks = m.arg[0];
  for (std::int64_t i = 0; i < nblocks; ++i)
    FGDSM_DCHECK(self.access(first + static_cast<BlockId>(i)) ==
                 Access::kReadWrite);
  std::memcpy(self.mem(m.addr), m.payload.data(), m.payload.size());
  clk.charge(cluster_.costs().copy_time(
      static_cast<std::int64_t>(m.payload.size())));
  nodes_[static_cast<std::size_t>(self.id())].recv_sem.post(clk.t, nblocks);
}

// ---------------------------------------------------------------------------
// Coherence-invariant checker
// ---------------------------------------------------------------------------

std::vector<std::string> Stache::find_violations() const {
  std::vector<std::string> out;
  auto report = [&out](const std::string& s) {
    if (out.size() < 32) out.push_back(s);  // cap: one bug floods all blocks
  };
  const int np = cluster_.nnodes();

  // Transaction drain: at a quiescent point every node's initiated
  // transactions have completed, which also means every eager-upgrade entry
  // (and with it every live dirty mask) has been consumed by a grant/deny.
  for (int n = 0; n < np; ++n) {
    const NodeState& st = nodes_[static_cast<std::size_t>(n)];
    if (st.outstanding != 0) {
      std::ostringstream os;
      os << "node " << n << ": " << st.outstanding
         << " transactions outstanding at quiescent point";
      report(os.str());
    }
    for (const PendingUpgrade& up : st.upgrade) {
      std::ostringstream os;
      os << "node " << n << " block " << up.b << ": undrained eager upgrade ("
         << up.reqs << " reqs, dirty mask 0x" << std::hex << up.mask << ")";
      report(os.str());
    }
  }

  // Directory engine drained: no busy entries, no queued requests.
  for (int h = 0; h < np; ++h) {
    const auto& d = dir_[static_cast<std::size_t>(h)].entries;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const DirEntry& e = d[i];
      if (e.busy || !e.queue_empty()) {
        std::ostringstream os;
        os << "home " << h << " block " << dir_block(h, i)
           << ": directory entry " << (e.busy ? "busy" : "")
           << (e.busy && !e.queue_empty() ? ", " : "")
           << (!e.queue_empty() ? "has queued requests" : "")
           << " at quiescent point";
        report(os.str());
      }
    }
  }

  // Directory belief vs. actual tags. A non-Invalid tag at node n for block
  // b must be justified by the directory — or by a compiler-contracted open
  // (implicit_writable), which the directory deliberately does not know
  // about.
  const std::size_t nblocks = cluster_.num_blocks();
  for (BlockId b = 0; b < nblocks; ++b) {
    const int home = cluster_.home_of(b);
    const DirEntry* e = dir_find(home, b);
    const DirState state = e == nullptr ? DirState::kIdle : e->state;
    static const SharerSet kNoSharers;
    const SharerSet& sharers = e == nullptr ? kNoSharers : e->sharers;
    const SharerArena& arena = dir_[static_cast<std::size_t>(home)].spill;
    const int owner = e == nullptr ? -1 : e->owner;
    for (int n = 0; n < np; ++n) {
      const Access a = cluster_.node(n).access(b);
      const bool opened =
          ccc_open_[static_cast<std::size_t>(n)].count(b) != 0;
      if (opened) continue;  // contracted incoherence: any tag is legal
      std::ostringstream os;
      switch (state) {
        case DirState::kIdle:
          // Only the home's copy exists (its memory is the storage).
          if (a != Access::kInvalid && n != home) {
            os << "block " << b << " Idle at home " << home << " but node "
               << n << " holds tag " << tempest::to_string(a);
            report(os.str());
          }
          break;
        case DirState::kShared:
          // Read-only copies at the sharer set; nobody writable.
          if (a == Access::kReadWrite) {
            os << "block " << b << " Shared (sharers 0x" << std::hex
               << sharers.low64() << std::dec << ") but node " << n
               << " holds a writable tag";
            report(os.str());
          } else if (a == Access::kReadOnly && !sharers.contains(n, arena)) {
            os << "block " << b << " Shared (sharers 0x" << std::hex
               << sharers.low64() << std::dec << ") but non-sharer node " << n
               << " holds a readonly tag";
            report(os.str());
          }
          break;
        case DirState::kExcl:
          if (n == owner) {
            if (a != Access::kReadWrite) {
              os << "block " << b << " Excl at node " << owner
                 << " but the owner's tag is " << tempest::to_string(a);
              report(os.str());
            }
          } else if (a != Access::kInvalid) {
            os << "block " << b << " Excl at node " << owner << " but node "
               << n << " holds tag " << tempest::to_string(a);
            report(os.str());
          }
          break;
      }
    }
  }
  return out;
}

void Stache::check_invariants(Node& node) {
  const std::vector<std::string> v = find_violations();
  if (v.empty()) return;
  std::ostringstream os;
  os << "coherence invariants violated at barrier (checked from node "
     << node.id() << "): ";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i == 0 ? "" : "; ") << v[i];
  FGDSM_ASSERT_MSG(false, os.str());
}

}  // namespace fgdsm::proto
