#include "gatelevel/atpg_comb.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <deque>
#include <stdexcept>

#include "gatelevel/faultsim.h"
#include "gatelevel/scoap.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace tsyn::gl {

namespace {

V and_v(V a, V b) {
  if (a == V::k0 || b == V::k0) return V::k0;
  if (a == V::k1 && b == V::k1) return V::k1;
  return V::kX;
}
V or_v(V a, V b) {
  if (a == V::k1 || b == V::k1) return V::k1;
  if (a == V::k0 && b == V::k0) return V::k0;
  return V::kX;
}
V xor_v(V a, V b) {
  if (a == V::kX || b == V::kX) return V::kX;
  return a == b ? V::k0 : V::k1;
}

V eval_plane(GateType type, const V* in, int num) {
  switch (type) {
    case GateType::kConst0: return V::k0;
    case GateType::kConst1: return V::k1;
    case GateType::kBuf: return in[0];
    case GateType::kNot: return !in[0];
    case GateType::kAnd:
    case GateType::kNand: {
      V r = in[0];
      for (int i = 1; i < num; ++i) r = and_v(r, in[i]);
      return type == GateType::kNand ? !r : r;
    }
    case GateType::kOr:
    case GateType::kNor: {
      V r = in[0];
      for (int i = 1; i < num; ++i) r = or_v(r, in[i]);
      return type == GateType::kNor ? !r : r;
    }
    case GateType::kXor: return xor_v(in[0], in[1]);
    case GateType::kXnor: return !xor_v(in[0], in[1]);
    case GateType::kMux: {
      const V sel = in[0];
      if (sel == V::k0) return in[1];
      if (sel == V::k1) return in[2];
      if (in[1] != V::kX && in[1] == in[2]) return in[1];
      return V::kX;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  assert(false);
  return V::kX;
}

/// Controlling value of a gate's inputs (X if none, e.g. XOR).
V controlling_value(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return V::k0;
    case GateType::kOr:
    case GateType::kNor:
      return V::k1;
    default:
      return V::kX;
  }
}

bool inverts(GateType t) {
  return t == GateType::kNot || t == GateType::kNand ||
         t == GateType::kNor || t == GateType::kXnor;
}

}  // namespace

Podem::Podem(const Netlist& n) : n_(n) {
  if (!n.flops().empty())
    throw std::runtime_error("PODEM is combinational; unroll first");
  vals_.resize(n.num_nodes());
  pi_assignment_.assign(n.num_nodes(), V::kX);
  frozen_.assign(n.num_nodes(), 0);
  pi_position_.assign(n.num_nodes(), -1);
  for (std::size_t i = 0; i < n.primary_inputs().size(); ++i)
    pi_position_[n.primary_inputs()[i]] = static_cast<int>(i);
  rebuild_assignable_cones();
}

void Podem::freeze_inputs(const std::vector<int>& pi_positions) {
  for (int pos : pi_positions) frozen_[n_.primary_inputs()[pos]] = 1;
  rebuild_assignable_cones();
}

void Podem::use_scoap_guidance(bool enable) {
  if (enable) {
    const Scoap s = compute_scoap(n_);
    cc0_ = s.cc0;
    cc1_ = s.cc1;
  } else {
    cc0_.clear();
    cc1_.clear();
  }
}

void Podem::rebuild_assignable_cones() {
  assignable_cone_.assign(n_.num_nodes(), 0);
  for (int id : n_.topo_order()) {
    const Node& node = n_.node(id);
    if (node.type == GateType::kInput) {
      assignable_cone_[id] = !frozen_[id];
      continue;
    }
    for (int f : node.fanins)
      if (f >= 0 && assignable_cone_[f]) {
        assignable_cone_[id] = 1;
        break;
      }
  }
}

void Podem::imply(const std::vector<Fault>& sites) {
  ++stats_.implications;
  V fanin_good[kMaxFanin];
  V fanin_faulty[kMaxFanin];
  for (int id : n_.topo_order()) {
    const Node& node = n_.node(id);
    if (node.type == GateType::kInput) {
      vals_[id].good = pi_assignment_[id];
      vals_[id].faulty = pi_assignment_[id];
    } else {
      for (std::size_t i = 0; i < node.fanins.size(); ++i) {
        fanin_good[i] = vals_[node.fanins[i]].good;
        fanin_faulty[i] = vals_[node.fanins[i]].faulty;
      }
      // Pin-fault overrides on the faulty plane.
      for (const Fault& f : sites)
        if (f.fanin_index >= 0 && f.node == id)
          fanin_faulty[f.fanin_index] = f.stuck_at_one ? V::k1 : V::k0;
      vals_[id].good = eval_plane(node.type, fanin_good,
                                  static_cast<int>(node.fanins.size()));
      vals_[id].faulty = eval_plane(node.type, fanin_faulty,
                                    static_cast<int>(node.fanins.size()));
    }
    // Output-fault overrides.
    for (const Fault& f : sites)
      if (f.fanin_index < 0 && f.node == id)
        vals_[id].faulty = f.stuck_at_one ? V::k1 : V::k0;
  }
}

bool Podem::detected_at_po() const {
  for (int po : n_.primary_outputs()) {
    const NodeVal& v = vals_[po];
    if (v.good != V::kX && v.faulty != V::kX && v.good != v.faulty)
      return true;
  }
  return false;
}

bool Podem::x_path_exists(const std::vector<Fault>& sites) const {
  // BFS from nodes carrying (or still capable of carrying) a fault effect
  // through X-valued nodes to a PO. A fault site whose composite value is
  // still X is a potential effect source — for a pin fault the divergence
  // lives inside the gate and only shows once the good value resolves.
  std::vector<char> po_mark(n_.num_nodes(), 0);
  for (int po : n_.primary_outputs()) po_mark[po] = 1;
  std::vector<char> visited(n_.num_nodes(), 0);
  std::deque<int> queue;
  for (int id = 0; id < n_.num_nodes(); ++id) {
    const NodeVal& v = vals_[id];
    const bool effect =
        v.good != V::kX && v.faulty != V::kX && v.good != v.faulty;
    if (effect) {
      if (po_mark[id]) return true;
      queue.push_back(id);
      visited[id] = 1;
    }
  }
  for (const Fault& f : sites) {
    const NodeVal& v = vals_[f.node];
    if (visited[f.node]) continue;
    if (v.good == V::kX || v.faulty == V::kX) {
      if (po_mark[f.node]) return true;
      queue.push_back(f.node);
      visited[f.node] = 1;
    }
  }
  const auto& fanouts = n_.fanouts();
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    for (int s : fanouts[id]) {
      if (visited[s]) continue;
      const NodeVal& v = vals_[s];
      // Propagation possible only through nodes still X on some plane.
      if (v.good != V::kX && v.faulty != V::kX && v.good == v.faulty)
        continue;
      visited[s] = 1;
      if (po_mark[s]) return true;
      queue.push_back(s);
    }
  }
  return false;
}

bool Podem::next_assignment(const std::vector<Fault>& sites, int* pi_node,
                            V* pi_value) const {
  int node = -1;
  V value = V::kX;
  auto try_objective = [&](int obj_node, V obj_value) {
    return backtrace(obj_node, obj_value, pi_node, pi_value);
  };
  (void)node;
  (void)value;
  // Activation first: the line each fault sits on must carry the opposite
  // of the stuck value in the good machine.
  for (const Fault& f : sites) {
    const int line = f.fanin_index < 0
                         ? f.node
                         : n_.node(f.node).fanins[f.fanin_index];
    const V need = f.stuck_at_one ? V::k0 : V::k1;
    // A line without an assignable PI in its cone can never be justified
    // (e.g. the frame-0 replica over a pinned unknown state): try the
    // fault's other frames/sites instead.
    if (vals_[line].good == V::kX && assignable_cone_[line] &&
        try_objective(line, need))
      return true;
  }
  // Pin-fault sites whose good output is still undetermined: resolving the
  // remaining X inputs manifests the internal divergence at the gate
  // output (the D-frontier test below cannot see it because the fanin
  // NODES agree on both planes).
  for (const Fault& f : sites) {
    if (f.fanin_index < 0) continue;
    const NodeVal& out = vals_[f.node];
    if (out.good != V::kX && out.faulty != V::kX) continue;
    const Node& site = n_.node(f.node);
    for (std::size_t i = 0; i < site.fanins.size(); ++i) {
      if (static_cast<int>(i) == f.fanin_index) continue;
      if (vals_[site.fanins[i]].good != V::kX) continue;
      if (!assignable_cone_[site.fanins[i]]) continue;
      V target = controlling_value(site.type);
      target = target == V::kX ? V::k0 : !target;
      if (try_objective(site.fanins[i], target)) return true;
    }
  }
  // Propagation: pick a D-frontier gate, set one X input to the
  // non-controlling value.
  for (int id : n_.topo_order()) {
    const Node& g = n_.node(id);
    if (g.fanins.empty()) continue;
    const NodeVal& out = vals_[id];
    if (out.good != V::kX && out.faulty != V::kX) continue;  // already set
    bool has_effect_input = false;
    for (int f : g.fanins) {
      const NodeVal& v = vals_[f];
      if (v.good != V::kX && v.faulty != V::kX && v.good != v.faulty)
        has_effect_input = true;
    }
    if (!has_effect_input) continue;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const NodeVal& v = vals_[g.fanins[i]];
      if (v.good != V::kX) continue;
      if (!assignable_cone_[g.fanins[i]]) continue;
      V target = controlling_value(g.type);
      if (target == V::kX) {
        // XOR/MUX-like: any defined value unblocks; for a mux select,
        // steer toward the effect leg when recognizable, else pick 0.
        target = V::k0;
      } else {
        target = !target;  // non-controlling
      }
      if (try_objective(g.fanins[i], target)) return true;
    }
  }
  return false;
}

bool Podem::backtrace(int node, V value, int* pi_node, V* pi_value) const {
  int cur = node;
  V v = value;
  for (int guard = 0; guard < n_.num_nodes() + 1; ++guard) {
    const Node& g = n_.node(cur);
    if (g.type == GateType::kInput) {
      if (frozen_[cur] || pi_assignment_[cur] != V::kX) return false;
      *pi_node = cur;
      *pi_value = v;
      return true;
    }
    if (g.fanins.empty()) return false;  // constant: cannot justify
    if (inverts(g.type)) v = !v;
    // Choose an X-valued fanin whose cone contains an assignable PI —
    // under SCOAP guidance, the one cheapest to drive to the target value.
    auto eligible = [&](int f) {
      return vals_[f].good == V::kX && assignable_cone_[f];
    };
    int chosen = -1;
    if (cc0_.empty()) {
      for (int f : g.fanins)
        if (eligible(f)) {
          chosen = f;
          break;
        }
    } else {
      int best_cost = INT_MAX;
      for (int f : g.fanins) {
        if (!eligible(f)) continue;
        const int cost = v == V::k1 ? cc1_[f] : v == V::k0 ? cc0_[f]
                                              : std::min(cc0_[f], cc1_[f]);
        if (cost < best_cost) {
          best_cost = cost;
          chosen = f;
        }
      }
    }
    if (chosen < 0) return false;
    // For MUX pursue the select when it is X, else the selected leg.
    if (g.type == GateType::kMux) {
      if (eligible(g.fanins[0])) {
        chosen = g.fanins[0];
        v = V::k0;
      } else if (vals_[g.fanins[0]].good != V::kX) {
        chosen = vals_[g.fanins[0]].good == V::k0 ? g.fanins[1]
                                                  : g.fanins[2];
        if (!eligible(chosen)) return false;
      } else {
        return false;  // select is X but pinned: legs cannot be steered
      }
    }
    cur = chosen;
  }
  return false;
}

AtpgResult Podem::generate(const Fault& fault, long backtrack_limit) {
  return generate_multi({fault}, backtrack_limit);
}

AtpgResult Podem::generate_multi(const std::vector<Fault>& sites,
                                 long backtrack_limit) {
  return generate_multi_from_base(sites, {}, backtrack_limit);
}

AtpgResult Podem::generate_multi_from_base(const std::vector<Fault>& sites,
                                           const std::vector<V>& base,
                                           long backtrack_limit) {
  stats_ = {};
  std::fill(pi_assignment_.begin(), pi_assignment_.end(), V::kX);
  if (!base.empty()) {
    if (base.size() != n_.primary_inputs().size())
      throw std::runtime_error("base cube size != primary input count");
    // Base bits become pre-assigned givens. They are never pushed on the
    // decision stack, so backtracking can neither flip nor unassign them;
    // backtrace() already refuses assigned PIs, so the search only spends
    // decisions on the cube's X bits.
    for (std::size_t i = 0; i < base.size(); ++i)
      pi_assignment_[n_.primary_inputs()[i]] = base[i];
  }

  struct Decision {
    int pi_node;
    bool tried_both;
  };
  std::vector<Decision> stack;
  imply(sites);

  AtpgResult result;
  for (;;) {
    if (detected_at_po()) {
      result.status = AtpgStatus::kDetected;
      break;
    }
    bool need_backtrack = false;
    // Check whether the fault can still be activated and propagated.
    bool activated = false;
    bool activation_possible = false;
    for (const Fault& f : sites) {
      const int line = f.fanin_index < 0
                           ? f.node
                           : n_.node(f.node).fanins[f.fanin_index];
      const V need = f.stuck_at_one ? V::k0 : V::k1;
      if (vals_[line].good == need) activated = true;
      if (vals_[line].good != !need) activation_possible = true;
    }
    if (!activated && !activation_possible) {
      need_backtrack = true;
    } else if (activated && !x_path_exists(sites)) {
      need_backtrack = true;
    }

    int pi = -1;
    V pi_val = V::kX;
    if (!need_backtrack) {
      if (!next_assignment(sites, &pi, &pi_val)) need_backtrack = true;
    }

    if (!need_backtrack) {
      ++stats_.decisions;
      pi_assignment_[pi] = pi_val;
      stack.push_back({pi, false});
      imply(sites);
      continue;
    }

    // Backtrack.
    for (;;) {
      if (stack.empty()) {
        result.status = AtpgStatus::kUntestable;
        goto done;
      }
      Decision& d = stack.back();
      if (!d.tried_both) {
        ++stats_.backtracks;
        if (stats_.backtracks > backtrack_limit) {
          result.status = AtpgStatus::kAborted;
          goto done;
        }
        d.tried_both = true;
        pi_assignment_[d.pi_node] = !pi_assignment_[d.pi_node];
        imply(sites);
        break;
      }
      pi_assignment_[d.pi_node] = V::kX;
      stack.pop_back();
    }
  }
done:
  result.stats = stats_;
  if (observe::ledger_enabled() && !sites.empty()) {
    // One targeted event per PODEM attempt, attributed to the primary
    // site (secondary multi-fault sites ride along unrecorded). Safe from
    // wave workers: each engine is slot-private, recording is
    // thread-striped.
    const observe::TargetOutcome outcome =
        result.status == AtpgStatus::kDetected
            ? observe::TargetOutcome::kDetected
            : result.status == AtpgStatus::kUntestable
                  ? observe::TargetOutcome::kUntestable
                  : observe::TargetOutcome::kAborted;
    observe::record_targeted(observe::make_fault_key(sites[0]), outcome,
                             stats_.decisions, stats_.backtracks);
  }
  result.pi_values.assign(n_.primary_inputs().size(), V::kX);
  if (result.status == AtpgStatus::kDetected)
    for (std::size_t i = 0; i < n_.primary_inputs().size(); ++i)
      result.pi_values[i] = pi_assignment_[n_.primary_inputs()[i]];
  return result;
}

namespace {

/// Publishes a campaign's effort into the metrics registry, keeping the
/// public AtpgStats struct as the caller-facing view of the same numbers.
void publish_comb_campaign(const AtpgCampaign& campaign) {
  static util::Counter& decisions =
      util::metrics().counter("atpg.comb.decisions");
  static util::Counter& backtracks =
      util::metrics().counter("atpg.comb.backtracks");
  static util::Counter& implications =
      util::metrics().counter("atpg.comb.implications");
  static util::Counter& detected =
      util::metrics().counter("atpg.comb.detected");
  static util::Counter& untestable =
      util::metrics().counter("atpg.comb.untestable");
  static util::Counter& aborted =
      util::metrics().counter("atpg.comb.aborted");
  static util::Counter& limit_hits =
      util::metrics().counter("atpg.comb.backtrack_limit_hits");
  decisions.add(campaign.total.decisions);
  backtracks.add(campaign.total.backtracks);
  implications.add(campaign.total.implications);
  long n_det = 0, n_unt = 0, n_abt = 0;
  for (AtpgStatus s : campaign.status) {
    if (s == AtpgStatus::kDetected) ++n_det;
    else if (s == AtpgStatus::kUntestable) ++n_unt;
    else ++n_abt;
  }
  detected.add(n_det);
  untestable.add(n_unt);
  aborted.add(n_abt);
  // PODEM aborts exactly when the backtrack limit trips, so the abort
  // count IS the limit-hit count for the combinational engine.
  limit_hits.add(n_abt);
}

}  // namespace

AtpgCampaign run_combinational_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    long backtrack_limit,
                                    const FaultSimOptions& sim_options) {
  TSYN_SPAN("gl.atpg.comb");
  if (observe::ledger_enabled())
    observe::record_universe(static_cast<long>(faults.size()));
  static util::Progress& p_targets = util::progress("atpg.targets");
  p_targets.add_total(static_cast<std::int64_t>(faults.size()));
  AtpgCampaign campaign;
  campaign.status.assign(faults.size(), AtpgStatus::kAborted);
  std::vector<bool> handled(faults.size(), false);

  FaultSimulator sim(n, sim_options);
  util::Rng rng(kAtpgGradeFillSeed);
  static util::Histogram& bt_hist =
      util::metrics().histogram("atpg.comb.backtracks_per_fault");

  // Grades one generated test against all still-unhandled faults, dropping
  // the ones it detects. The cube's X inputs are filled with random words
  // (64 independent completions per cube, one rng stream in test order);
  // the exact block is recorded in graded_fill so the campaign's detection
  // decisions are reproducible downstream — see kAtpgGradeFillSeed.
  auto grade_test = [&](const std::vector<V>& pi_values) {
    campaign.tests.push_back(pi_values);
    std::vector<Bits> block(n.primary_inputs().size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      switch (pi_values[i]) {
        case V::k0: block[i] = Bits::all0(); break;
        case V::k1: block[i] = Bits::all1(); break;
        case V::kX: block[i] = Bits::known(rng.next_u64()); break;
      }
    }
    campaign.graded_fill.push_back(block);
    std::vector<bool> drop(faults.size(), false);
    for (std::size_t j = 0; j < faults.size(); ++j) drop[j] = handled[j];
    sim.run_block(block, faults, drop);
    std::int64_t closed = 0;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      if (!handled[j] && drop[j]) {
        handled[j] = true;
        campaign.status[j] = AtpgStatus::kDetected;
        ++closed;
      }
    }
    if (closed) p_targets.add(closed);
  };

  auto add_stats = [&](const AtpgStats& s) {
    campaign.total.decisions += s.decisions;
    campaign.total.backtracks += s.backtracks;
    campaign.total.implications += s.implications;
    bt_hist.observe(s.backtracks);
  };

  const int wave = sim_options.resolved_atpg_wave();
  if (wave <= 1) {
    // Serial generation: fault by fault, grading after each detection —
    // bit-identical to the original single-threaded engine.
    Podem podem(n);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (handled[fi]) continue;
      const AtpgResult r = podem.generate(faults[fi], backtrack_limit);
      add_stats(r.stats);
      campaign.status[fi] = r.status;
      handled[fi] = true;
      p_targets.add(1);
      if (r.status == AtpgStatus::kDetected) grade_test(r.pi_values);
    }
  } else {
    // Wave-parallel generation: take up to `wave` unhandled faults, PODEM
    // them concurrently (one engine per worker slot, each result carrying
    // its own AtpgStats so the campaign totals are the SUM over workers),
    // then grade the wave's tests serially in wave order. Deterministic
    // for a fixed wave width regardless of worker count; differs from the
    // serial path only in that a wave member may be generated although an
    // earlier wave-mate's test would have dropped it (that extra effort is
    // counted — it was spent).
    const int workers =
        std::max(1, std::min(sim_options.resolved_threads(), wave));
    std::vector<Podem> podems;
    podems.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) podems.emplace_back(n);

    std::size_t cursor = 0;
    std::vector<std::size_t> wave_idx;
    std::vector<AtpgResult> results;
    for (;;) {
      wave_idx.clear();
      while (cursor < faults.size() &&
             wave_idx.size() < static_cast<std::size_t>(wave)) {
        if (!handled[cursor]) wave_idx.push_back(cursor);
        ++cursor;
      }
      if (wave_idx.empty()) break;
      results.assign(wave_idx.size(), AtpgResult{});
      auto job = [&](int i, int slot) {
        results[i] =
            podems[slot].generate(faults[wave_idx[i]], backtrack_limit);
      };
      const int count = static_cast<int>(wave_idx.size());
      if (workers <= 1 || count <= 1) {
        for (int i = 0; i < count; ++i) job(i, 0);
      } else {
        util::ThreadPool::shared().run(count, workers, job);
      }
      for (std::size_t i = 0; i < wave_idx.size(); ++i) {
        const std::size_t fi = wave_idx[i];
        const AtpgResult& r = results[i];
        add_stats(r.stats);
        if (handled[fi]) continue;  // dropped by an earlier wave-mate
        campaign.status[fi] = r.status;
        handled[fi] = true;
        p_targets.add(1);
        if (r.status == AtpgStatus::kDetected) grade_test(r.pi_values);
      }
    }
  }

  long detected = 0;
  long untestable = 0;
  for (AtpgStatus s : campaign.status) {
    if (s == AtpgStatus::kDetected) ++detected;
    else if (s == AtpgStatus::kUntestable) ++untestable;
  }
  const double total = static_cast<double>(faults.size());
  campaign.fault_coverage = total == 0 ? 1.0 : detected / total;
  campaign.fault_efficiency =
      total == 0 ? 1.0 : (detected + untestable) / total;
  publish_comb_campaign(campaign);
  return campaign;
}

}  // namespace tsyn::gl
