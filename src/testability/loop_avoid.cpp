#include "testability/loop_avoid.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "cdfg/lifetime.h"
#include "graph/paths.h"

namespace tsyn::testability {

namespace {

/// Transitive closure of a digraph that only gains edges, over nodes
/// [0, n): row u holds the nodes reachable from u by one or more edges.
/// Adding edge (from, to) closes a cycle iff `reaches(to, from)` before it.
class Reachability {
 public:
  explicit Reachability(int n)
      : n_(n),
        words_((static_cast<std::size_t>(n) + 63) / 64),
        rows_(static_cast<std::size_t>(n) * words_, 0) {}

  bool reaches(int from, int to) const {
    return (rows_[from * words_ + to / 64] >> (to % 64)) & 1;
  }

  /// Everything `to` reaches, and `to` itself, becomes reachable from
  /// `from` and from every node that already reaches `from`.
  void add_edge(int from, int to) {
    std::vector<std::uint64_t> gained(rows_.begin() + to * words_,
                                      rows_.begin() + (to + 1) * words_);
    gained[to / 64] |= std::uint64_t{1} << (to % 64);
    for (int u = 0; u < n_; ++u) {
      if (u != from && !reaches(u, from)) continue;
      for (std::size_t w = 0; w < words_; ++w)
        rows_[u * words_ + w] |= gained[w];
    }
  }

 private:
  int n_;
  std::size_t words_;
  std::vector<std::uint64_t> rows_;
};

}  // namespace

std::vector<int> loop_aware_register_assignment(
    const cdfg::Cdfg& g, const cdfg::LifetimeAnalysis& lts,
    const std::vector<cdfg::VarId>& scan_vars,
    const std::vector<int>& fu_of_op, bool structural_reg_edges,
    bool scan_reuse_reward) {
  const int n = static_cast<int>(lts.lifetimes.size());

  // Which lifetimes are scan (hold a scan variable)?
  std::vector<bool> scan_lifetime(n, false);
  for (cdfg::VarId v : scan_vars) {
    const int lt = lts.lifetime_of_var[v];
    if (lt >= 0) scan_lifetime[lt] = true;
  }

  // Producer->consumer register edges are STRUCTURAL: a shared FU's mux
  // trees connect every register feeding any of its ports to every
  // register it loads, independent of which operation is active. Copies
  // and boundary transfers add direct register-to-register paths.
  std::vector<std::set<int>> lt_preds(n);
  std::map<int, std::set<int>> fu_inputs;
  std::map<int, std::set<int>> fu_dests;
  for (const cdfg::Operation& op : g.ops()) {
    const int out_lt = lts.lifetime_of_var[op.output];
    if (out_lt < 0) continue;
    const int fu = (structural_reg_edges &&
                    op.id < static_cast<int>(fu_of_op.size()))
                       ? fu_of_op[op.id]
                       : -1;
    if (fu < 0) {
      // Copy (or unbound) op: direct edges only.
      for (cdfg::VarId in : op.inputs) {
        const int in_lt = lts.lifetime_of_var[in];
        if (in_lt >= 0 && in_lt != out_lt) lt_preds[out_lt].insert(in_lt);
      }
      continue;
    }
    fu_dests[fu].insert(out_lt);
    for (cdfg::VarId in : op.inputs) {
      const int in_lt = lts.lifetime_of_var[in];
      if (in_lt >= 0) fu_inputs[fu].insert(in_lt);
    }
  }
  for (const auto& [fu, dests] : fu_dests)
    for (int dest : dests)
      for (int in_lt : fu_inputs[fu])
        if (in_lt != dest) lt_preds[dest].insert(in_lt);
  for (int i = 0; i < n; ++i) {
    const cdfg::StorageLifetime& lt = lts.lifetimes[i];
    if (lt.transfer_from >= 0) {
      const int src = lts.lifetime_of_var[lt.transfer_from];
      if (src >= 0 && src != i) lt_preds[i].insert(src);
    }
  }

  // Assignment order: scan lifetimes first (they anchor the loop-breaking
  // registers), then by interval birth.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (scan_lifetime[a] != scan_lifetime[b])
      return static_cast<bool>(scan_lifetime[a]);
    if (lts.lifetimes[a].interval.birth != lts.lifetimes[b].interval.birth)
      return lts.lifetimes[a].interval.birth <
             lts.lifetimes[b].interval.birth;
    return a < b;
  });

  // consumers[lt]: the lifetimes that have lt among their predecessors.
  std::vector<std::vector<int>> consumers(n);
  for (int i = 0; i < n; ++i)
    for (int p : lt_preds[i]) consumers[p].push_back(i);

  std::vector<int> reg_of(n, -1);
  std::vector<std::vector<int>> reg_members;
  std::vector<bool> reg_scan;
  // Register-level paths that run through non-scan registers only: edges
  // touching a scan register are never added, since scan registers break
  // loops. A register's scan role is fixed when it opens, so the closure is
  // only ever extended. Each lifetime opens at most one register.
  Reachability reach(n);

  // Area guard: beyond a small slack over the left-edge optimum, opening
  // another register costs more than tolerating a loop — otherwise the
  // assignment dilutes traffic over ever more FU-adjacent registers and
  // makes the S-graph worse, not better.
  std::vector<graph::Interval> intervals;
  for (const auto& lt : lts.lifetimes) intervals.push_back(lt.interval);
  int min_regs = 0;
  graph::left_edge_assign(intervals, lts.num_slots, &min_regs);
  const int reg_budget = min_regs + std::max(2, min_regs / 4);

  // Calls fn(from, to) for each register edge this placement would add
  // (both directions, duplicates kept).
  auto for_each_edge = [&](int lt, int candidate_reg, auto&& fn) {
    for (int p : lt_preds[lt])
      if (reg_of[p] >= 0 && reg_of[p] != candidate_reg)
        fn(reg_of[p], candidate_reg);
    for (int c : consumers[lt])
      if (reg_of[c] >= 0 && reg_of[c] != candidate_reg)
        fn(candidate_reg, reg_of[c]);
  };

  for (int lt : order) {
    const bool lt_is_scan = scan_lifetime[lt];
    int best_reg = -1;
    long best_cost = LONG_MAX;
    const int num_regs = static_cast<int>(reg_members.size());
    for (int r = 0; r <= num_regs; ++r) {
      const bool is_new = r == num_regs;
      if (!is_new) {
        // A scan lifetime may only join a scan register and vice versa
        // (scanning a register scans everything in it; keep roles aligned
        // so the scan count stays what the selector intended).
        bool overlap = false;
        for (int m : reg_members[r])
          if (lts.overlap(lt, m)) {
            overlap = true;
            break;
          }
        if (overlap) continue;
        if (reg_scan[r] != lt_is_scan && !reg_scan[r]) continue;
      }
      // Cost: new loops closed (unless this register is scan), then
      // whether a new register is opened; sharing a scan register is
      // rewarded (its paths are broken in test mode anyway — the paper's
      // "maximally reusing existing scan registers").
      long cost = 0;
      if (is_new)
        cost = num_regs < reg_budget ? 30 : 1500;  // soft area guard
      const bool candidate_scan = is_new ? lt_is_scan : reg_scan[r];
      if (scan_reuse_reward && !is_new && candidate_scan && !lt_is_scan)
        cost -= 5;
      if (!candidate_scan) {
        // Scan registers hold no rows and sit in none, so edges touching
        // one never count.
        for_each_edge(lt, r, [&](int from, int to) {
          if (reach.reaches(to, from)) cost += 1000;
        });
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_reg = r;
      }
    }
    // Place. A scan lifetime never joins a non-scan register, so no
    // register turns scan after it opens.
    assert(!lt_is_scan || best_reg == num_regs || reg_scan[best_reg]);
    if (best_reg == num_regs) {
      reg_members.emplace_back();
      reg_scan.push_back(lt_is_scan);
    }
    reg_of[lt] = best_reg;
    reg_members[best_reg].push_back(lt);
    for_each_edge(lt, best_reg, [&](int from, int to) {
      if (!reg_scan[from] && !reg_scan[to]) reach.add_edge(from, to);
    });
  }
  return reg_of;
}

namespace {

/// A greedy schedule and its FU assignment (compact FU ids, -1 for copies).
struct GreedySchedule {
  hls::Schedule schedule;
  std::vector<int> fu_of_op;
};

/// One greedy scheduling attempt at a fixed deadline; throws on dead-end.
GreedySchedule loop_avoiding_schedule(const cdfg::Cdfg& g,
                                      const LoopAvoidOptions& opts,
                                      int deadline) {
  const hls::Schedule asap = hls::asap_schedule(g);
  const hls::Schedule alap = hls::alap_schedule(
      g, std::max(deadline, hls::critical_path_length(g)));

  // FU instances per type used, numbered in order of first use by an op.
  std::map<cdfg::FuType, std::vector<int>> fu_ids;
  int num_fus = 0;
  for (const cdfg::Operation& op : g.ops()) {
    if (op.kind == cdfg::OpKind::kCopy) continue;
    const cdfg::FuType t = cdfg::fu_type_of(op.kind);
    std::vector<int>& ids = fu_ids[t];
    if (!ids.empty()) continue;
    const int count = std::min(opts.resources.get(t), g.num_ops());
    for (int i = 0; i < count; ++i) ids.push_back(num_fus++);
  }

  const graph::Digraph dep = g.op_dependence_graph(false);
  std::vector<int> step_of(g.num_ops(), -1);
  std::vector<int> fu_of(g.num_ops(), -1);
  // Dynamic deadline: scheduling an op tightens its still-unscheduled
  // predecessors (they must finish strictly earlier).
  std::vector<int> alap_eff = alap.step_of_op;
  // (fu, step) occupancy.
  std::set<std::pair<int, int>> busy;
  // Closure of the FU dependence edges accumulated so far.
  Reachability fu_reach(num_fus);

  auto earliest = [&](cdfg::OpId o) {
    int e = 0;
    for (graph::NodeId p : dep.predecessors(o))
      e = std::max(e, (step_of[p] >= 0 ? step_of[p] : asap.step_of_op[p]) + 1);
    return e;
  };

  int scheduled = 0;
  while (scheduled < g.num_ops()) {
    // Least slack first among unscheduled ops.
    cdfg::OpId pick = -1;
    int pick_slack = INT_MAX;
    for (cdfg::OpId o = 0; o < g.num_ops(); ++o) {
      if (step_of[o] >= 0) continue;
      // Ready ops only (all predecessors placed): scheduling a successor
      // first could wedge its producers against an impossible deadline.
      bool ready = true;
      for (graph::NodeId p : dep.predecessors(o))
        if (step_of[p] < 0) ready = false;
      if (!ready) continue;
      const int slack = alap_eff[o] - earliest(o);
      if (slack < pick_slack) {
        pick_slack = slack;
        pick = o;
      }
    }
    if (pick < 0 || pick_slack < 0)
      throw std::runtime_error("loop-avoiding scheduler infeasible; relax "
                               "the deadline or resources");

    const cdfg::FuType type = cdfg::fu_type_of(g.op(pick).kind);
    const bool needs_fu = g.op(pick).kind != cdfg::OpKind::kCopy;
    const std::vector<int> candidates_fu =
        needs_fu ? fu_ids.at(type) : std::vector<int>{-1};

    long best_cost = LONG_MAX;
    int best_fu = -2;
    int best_step = -1;
    for (int fu : candidates_fu) {
      for (int step = earliest(pick); step <= alap_eff[pick]; ++step) {
        if (fu >= 0 && busy.count({fu, step})) continue;
        long cost = 0;
        if (fu >= 0 && opts.fu_cycle_cost) {
          // Testability cost: new FU-level cycles closed by the dependence
          // edges this assignment adds (self-edges are tolerable
          // self-loops).
          for (graph::NodeId p : dep.predecessors(pick)) {
            const int pfu = fu_of[p];
            if (pfu < 0 || pfu == fu) continue;
            if (fu_reach.reaches(fu, pfu)) cost += 1000;
          }
          for (graph::NodeId s : dep.successors(pick)) {
            const int sfu = fu_of[s];
            if (sfu < 0 || sfu == fu) continue;
            if (fu_reach.reaches(sfu, fu)) cost += 1000;
          }
        }
        // Flexibility cost: occupying a slot other urgent ops may need.
        for (cdfg::OpId o = 0; o < g.num_ops(); ++o) {
          if (o == pick || step_of[o] >= 0) continue;
          if (cdfg::fu_type_of(g.op(o).kind) != type || !needs_fu) continue;
          if (alap.step_of_op[o] == step) ++cost;
        }
        // Mild preference for earlier steps (keeps lifetimes short).
        cost += step;
        if (cost < best_cost) {
          best_cost = cost;
          best_fu = fu;
          best_step = step;
        }
      }
    }
    if (best_fu == -2)
      throw std::runtime_error("no feasible (FU, step) pair; relax limits");

    step_of[pick] = best_step;
    fu_of[pick] = best_fu;
    for (graph::NodeId p : dep.predecessors(pick))
      if (step_of[p] < 0) alap_eff[p] = std::min(alap_eff[p], best_step - 1);
    if (best_fu >= 0) {
      busy.insert({best_fu, best_step});
      for (graph::NodeId p : dep.predecessors(pick))
        if (fu_of[p] >= 0 && fu_of[p] != best_fu)
          fu_reach.add_edge(fu_of[p], best_fu);
      for (graph::NodeId s : dep.successors(pick))
        if (fu_of[s] >= 0 && fu_of[s] != best_fu)
          fu_reach.add_edge(best_fu, fu_of[s]);
    }
    ++scheduled;
  }

  GreedySchedule result;
  result.schedule.num_steps =
      1 + *std::max_element(step_of.begin(), step_of.end());
  result.schedule.num_steps = std::max(result.schedule.num_steps, deadline);
  result.schedule.step_of_op = std::move(step_of);

  // Compact FU ids (drop unused instances).
  std::vector<int> remap(num_fus, -1);
  int next = 0;
  for (cdfg::OpId o = 0; o < g.num_ops(); ++o)
    if (fu_of[o] >= 0 && remap[fu_of[o]] < 0) remap[fu_of[o]] = next++;
  for (cdfg::OpId o = 0; o < g.num_ops(); ++o)
    if (fu_of[o] >= 0) fu_of[o] = remap[fu_of[o]];
  result.fu_of_op = std::move(fu_of);
  return result;
}

}  // namespace

LoopAvoidResult loop_avoiding_synthesis(const cdfg::Cdfg& g,
                                        const LoopAvoidOptions& opts) {
  // Default deadline: the shortest length the allocation can meet (the
  // critical path alone may be infeasible under tight resources). The
  // greedy least-slack order can still dead-end at a tight deadline; relax
  // by one step and retry, bounded by the trivial serial schedule.
  int deadline =
      opts.num_steps > 0
          ? opts.num_steps
          : std::max(hls::critical_path_length(g),
                     hls::list_schedule(g, opts.resources).num_steps);
  const int limit = deadline + g.num_ops() + 1;
  std::optional<GreedySchedule> greedy;
  for (; !greedy && deadline <= limit; ++deadline) {
    try {
      greedy = loop_avoiding_schedule(g, opts, deadline);
    } catch (const std::runtime_error&) {
      // dead-end: relax the deadline
    }
  }
  if (!greedy)
    throw std::runtime_error("loop-avoiding synthesis failed to converge");

  // Binding is not retried: a failure here is a defect, not a dead end.
  LoopAvoidResult result;
  result.schedule = std::move(greedy->schedule);
  result.binding =
      hls::make_binding_with_fu_map(g, result.schedule, greedy->fu_of_op);
  const std::vector<int> reg_map = loop_aware_register_assignment(
      g, result.binding.lifetimes, opts.scan_vars, result.binding.fu_of_op,
      opts.structural_reg_edges, opts.scan_reuse_reward);
  hls::rebind_registers(g, result.binding, reg_map);
  hls::validate_binding(g, result.schedule, result.binding);
  return result;
}

}  // namespace tsyn::testability
