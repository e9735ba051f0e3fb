#include "src/core/plan_table.h"

#include <set>

namespace fgdsm::core {

std::vector<std::string> plan_key_symbols(const hpf::ParallelLoop& loop,
                                          const hpf::Program& prog) {
  std::set<std::string> loop_vars;
  loop_vars.insert(loop.dist.sym);
  for (const auto& fv : loop.free) loop_vars.insert(fv.sym);

  std::set<std::string> syms;
  auto add_expr = [&](const hpf::AffineExpr& e) {
    for (const auto& [s, c] : e.terms()) {
      (void)c;
      if (!loop_vars.count(s)) syms.insert(s);
    }
  };
  add_expr(loop.dist.lo);
  add_expr(loop.dist.hi);
  for (const auto& fv : loop.free) {
    add_expr(fv.lo);
    add_expr(fv.hi);
  }
  add_expr(loop.home_sub);

  std::set<std::string> arrays;
  if (!loop.home_array.empty()) arrays.insert(loop.home_array);
  auto add_ref = [&](const hpf::ArrayRef& r) {
    arrays.insert(r.array);
    for (const auto& sub : r.subs) add_expr(sub);
  };
  for (const auto& r : loop.reads) add_ref(r);
  for (const auto& w : loop.writes) add_ref(w);
  for (const auto& ir : loop.ind_reads) {
    arrays.insert(ir.array);
    arrays.insert(ir.index_array);
    for (const auto& sub : ir.index_subs) add_expr(sub);
  }
  for (const auto& name : arrays)
    for (const auto& e : prog.array(name).extents) add_expr(e);

  return {syms.begin(), syms.end()};
}

bool PlanTable::Entry::matches(const hpf::Bindings& b,
                               const std::vector<std::int64_t>& extra) const {
  if (key.size() != symbols->size() + extra.size()) return false;
  std::size_t i = 0;
  for (const auto& sym : *symbols)
    if (key[i++] != b.get(sym)) return false;
  for (const std::int64_t v : extra)
    if (key[i++] != v) return false;
  return true;
}

PlanTable::PlanTable(const hpf::Program& prog, const LayoutMap& layouts,
                     int np, std::size_t block_size, bool block_align)
    : prog_(prog),
      layouts_(layouts),
      np_(np),
      block_size_(block_size),
      block_align_(block_align) {}

const PlanTable::Entry& PlanTable::get(
    const hpf::ParallelLoop& loop, const hpf::Bindings& b,
    const std::vector<std::int64_t>& extra,
    const std::function<std::vector<hpf::Transfer>()>& gathers) {
  // Held through the analysis and gathers(): a second request for the same
  // key must wait for this entry, not analyze it again.
  std::lock_guard<std::mutex> lock(mu_);
  auto [sit, fresh] = slots_.try_emplace(&loop);
  Slot& slot = sit->second;
  if (fresh) slot.symbols = plan_key_symbols(loop, prog_);

  std::vector<std::int64_t>& key = key_;
  key.clear();
  for (const auto& sym : slot.symbols) key.push_back(b.get(sym));
  key.insert(key.end(), extra.begin(), extra.end());
  auto it = slot.entries.find(key);
  if (it != slot.entries.end()) return it->second;

  Entry e;
  e.symbols = &slot.symbols;
  e.key = key;
  e.transfers = hpf::analyze_transfers(loop, prog_, b, np_);
  if (gathers) {
    std::vector<hpf::Transfer> g = gathers();
    e.transfers.insert(e.transfers.end(), std::make_move_iterator(g.begin()),
                       std::make_move_iterator(g.end()));
  }
  e.plans.reserve(static_cast<std::size_t>(np_));
  for (int me = 0; me < np_; ++me)
    e.plans.push_back(plan_from_transfers(e.transfers, layouts_, me,
                                          block_size_, block_align_));
  return slot.entries.emplace(key, std::move(e)).first->second;
}

}  // namespace fgdsm::core
