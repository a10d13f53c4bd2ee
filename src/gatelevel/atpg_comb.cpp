#include "gatelevel/atpg_comb.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "gatelevel/faultsim.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/rng.h"
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

/// Both planes defined and different: the node carries a fault effect.
bool is_effect(V good, V faulty) {
  return good != V::kX && faulty != V::kX && good != faulty;
}

bool inverts(GateType t) {
  return t == GateType::kNot || t == GateType::kNand ||
         t == GateType::kNor || t == GateType::kXnor;
}

}  // namespace

Podem::Podem(const Netlist& n) : n_(n), g_(SimGraph::of(n)) {
  if (!n.flops().empty())
    throw std::runtime_error("PODEM is combinational; unroll first");
  const int nn = g_.num_nodes();
  vals_.resize(nn);
  pi_assignment_.assign(nn, V::kX);
  frozen_.assign(nn, 0);
  topo_rank_.resize(nn);
  const std::vector<int>& topo = n.topo_order();
  for (std::size_t i = 0; i < topo.size(); ++i)
    topo_rank_[topo[i]] = static_cast<std::int32_t>(i);
  is_site_.assign(nn, 0);
  events_.resize(nn);
  level_fill_.assign(g_.num_levels(), 0);
  queued_.assign(nn, 0);
  stamp_.assign(nn, 0);
  rebuild_assignable_cones();
}

void Podem::freeze_inputs(const std::vector<int>& pi_positions) {
  for (int pos : pi_positions) frozen_[g_.pis()[pos]] = 1;
  rebuild_assignable_cones();
}

void Podem::rebuild_assignable_cones() {
  assignable_cone_.assign(g_.num_nodes(), 0);
  const std::int32_t* fanin = g_.fanin();
  const std::int32_t* fanin_off = g_.fanin_off();
  for (int id : g_.order()) {
    if (g_.type(id) == GateType::kInput) {
      assignable_cone_[id] = !frozen_[id];
      continue;
    }
    for (int k = fanin_off[id]; k < fanin_off[id + 1]; ++k)
      if (assignable_cone_[fanin[k]]) {
        assignable_cone_[id] = 1;
        break;
      }
  }
}

int Podem::fault_line(const Fault& f) const {
  return f.fanin_index < 0 ? f.node
                           : g_.fanin()[g_.fanin_off()[f.node] + f.fanin_index];
}

std::uint32_t Podem::next_epoch() {
  if (++epoch_ == 0) {  // wrapped: old marks could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

Podem::NodeVal Podem::eval_node(int id,
                                const std::vector<Fault>& sites) const {
  const GateType type = g_.type(id);
  const bool site = is_site_[id];
  NodeVal out;
  if (type == GateType::kInput) {
    out.good = out.faulty = pi_assignment_[id];
  } else {
    const std::int32_t* fanin = g_.fanin() + g_.fanin_off()[id];
    const int num = g_.num_fanins(id);
    V fanin_good[kMaxFanin];
    V fanin_faulty[kMaxFanin];
    for (int i = 0; i < num; ++i) {
      fanin_good[i] = vals_[fanin[i]].good;
      fanin_faulty[i] = vals_[fanin[i]].faulty;
    }
    // Pin-fault overrides on the faulty plane.
    if (site)
      for (const Fault& f : sites)
        if (f.fanin_index >= 0 && f.node == id)
          fanin_faulty[f.fanin_index] = f.stuck_at_one ? V::k1 : V::k0;
    out.good = eval_plane(type, fanin_good, num);
    out.faulty = eval_plane(type, fanin_faulty, num);
  }
  // Output-fault overrides.
  if (site)
    for (const Fault& f : sites)
      if (f.fanin_index < 0 && f.node == id)
        out.faulty = f.stuck_at_one ? V::k1 : V::k0;
  return out;
}

void Podem::imply_all(const std::vector<Fault>& sites) {
  ++stats_.implications;
  changed_pis_.clear();
  for (int id : g_.order()) vals_[id] = eval_node(id, sites);
}

void Podem::assign(int pi_node, V value) {
  pi_assignment_[pi_node] = value;
  changed_pis_.push_back(pi_node);
}

void Podem::imply(const std::vector<Fault>& sites) {
  ++stats_.implications;
  const std::int32_t* level_of = g_.level_of();
  const std::int32_t* level_off = g_.level_off();
  const std::int32_t* fanout = g_.fanout();
  const std::int32_t* fanout_off = g_.fanout_off();
  int deepest = -1;
  auto schedule = [&](int id) {
    if (queued_[id]) return;
    queued_[id] = 1;
    const int level = level_of[id];
    events_[level_off[level] + level_fill_[level]++] = id;
    deepest = std::max(deepest, level);
  };
  for (int pi : changed_pis_) schedule(pi);
  changed_pis_.clear();
  // Fanouts sit strictly deeper than their source, so a level's bucket is
  // complete by the time the sweep reaches it.
  for (int level = 0; level <= deepest; ++level) {
    const std::int32_t* bucket = events_.data() + level_off[level];
    for (int k = 0; k < level_fill_[level]; ++k) {
      const int id = bucket[k];
      queued_[id] = 0;
      const NodeVal v = eval_node(id, sites);
      if (v == vals_[id]) continue;
      vals_[id] = v;
      for (int e = fanout_off[id]; e < fanout_off[id + 1]; ++e)
        schedule(fanout[e]);
    }
    level_fill_[level] = 0;
  }
}

bool Podem::detected_at_po() const {
  for (int po : g_.pos())
    if (is_effect(vals_[po].good, vals_[po].faulty)) return true;
  return false;
}

void Podem::collect_effects(const std::vector<Fault>& sites) {
  // Planes only split at a site; a non-site node whose fanins agree on
  // both planes evaluates equal on both. So every node with differing
  // planes is reached from a site through such nodes.
  const std::int32_t* fanout = g_.fanout();
  const std::int32_t* fanout_off = g_.fanout_off();
  const std::uint32_t mark = next_epoch();
  effects_.clear();
  work_.clear();
  for (const Fault& f : sites)
    if (stamp_[f.node] != mark) {
      stamp_[f.node] = mark;
      work_.push_back(f.node);
    }
  for (std::size_t head = 0; head < work_.size(); ++head) {
    const int id = work_[head];
    if (is_effect(vals_[id].good, vals_[id].faulty)) effects_.push_back(id);
    for (int e = fanout_off[id]; e < fanout_off[id + 1]; ++e) {
      const int s = fanout[e];
      if (stamp_[s] == mark || vals_[s].good == vals_[s].faulty) continue;
      stamp_[s] = mark;
      work_.push_back(s);
    }
  }
}

bool Podem::x_path_exists(const std::vector<Fault>& sites) {
  // Search from nodes carrying (or still capable of carrying) a fault
  // effect through X-valued nodes to a PO. A fault site whose composite
  // value is still X is a potential effect source — for a pin fault the
  // divergence lives inside the gate and only shows once the good value
  // resolves.
  const std::uint8_t* flags = g_.flags();
  const std::int32_t* fanout = g_.fanout();
  const std::int32_t* fanout_off = g_.fanout_off();
  const std::uint32_t mark = next_epoch();
  work_.clear();
  auto reach = [&](int id) {
    stamp_[id] = mark;
    work_.push_back(id);
    return (flags[id] & SimGraph::kFlagPo) != 0;
  };
  for (int id : effects_)
    if (reach(id)) return true;
  for (const Fault& f : sites) {
    const NodeVal& v = vals_[f.node];
    if (stamp_[f.node] == mark) continue;
    if ((v.good == V::kX || v.faulty == V::kX) && reach(f.node)) return true;
  }
  for (std::size_t head = 0; head < work_.size(); ++head) {
    const int id = work_[head];
    for (int e = fanout_off[id]; e < fanout_off[id + 1]; ++e) {
      const int s = fanout[e];
      if (stamp_[s] == mark) continue;
      const NodeVal& v = vals_[s];
      // Propagation possible only through nodes still X on some plane.
      if (v.good != V::kX && v.faulty != V::kX && v.good == v.faulty)
        continue;
      if (reach(s)) return true;
    }
  }
  return false;
}

bool Podem::next_assignment(const std::vector<Fault>& sites, int* pi_node,
                            V* pi_value) {
  const std::int32_t* fanin = g_.fanin();
  const std::int32_t* fanin_off = g_.fanin_off();
  // Activation first: the line each fault sits on must carry the opposite
  // of the stuck value in the good machine.
  for (const Fault& f : sites) {
    const int line = fault_line(f);
    const V need = f.stuck_at_one ? V::k0 : V::k1;
    // A line without an assignable PI in its cone can never be justified
    // (e.g. the frame-0 replica over a pinned unknown state): try the
    // fault's other frames/sites instead.
    if (vals_[line].good == V::kX && assignable_cone_[line] &&
        backtrace(line, need, pi_node, pi_value))
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
    const GateType type = g_.type(f.node);
    for (int k = fanin_off[f.node]; k < fanin_off[f.node + 1]; ++k) {
      const int in = fanin[k];
      if (k - fanin_off[f.node] == f.fanin_index) continue;
      if (vals_[in].good != V::kX) continue;
      if (!assignable_cone_[in]) continue;
      V target = controlling_value(type);
      target = target == V::kX ? V::k0 : !target;
      if (backtrace(in, target, pi_node, pi_value)) return true;
    }
  }
  // Propagation: pick a D-frontier gate — output not yet defined on both
  // planes, some input carrying an effect — and set one X input to the
  // non-controlling value. The candidates are exactly the effect nodes'
  // fanouts, tried in Netlist::topo_order() rank.
  const std::int32_t* fanout = g_.fanout();
  const std::int32_t* fanout_off = g_.fanout_off();
  const std::uint32_t mark = next_epoch();
  frontier_.clear();
  for (int id : effects_)
    for (int e = fanout_off[id]; e < fanout_off[id + 1]; ++e) {
      const int s = fanout[e];
      if (stamp_[s] == mark) continue;
      stamp_[s] = mark;
      if (vals_[s].good == V::kX || vals_[s].faulty == V::kX)
        frontier_.push_back(s);
    }
  std::sort(frontier_.begin(), frontier_.end(),
            [&](int a, int b) { return topo_rank_[a] < topo_rank_[b]; });
  for (int id : frontier_) {
    const GateType type = g_.type(id);
    for (int k = fanin_off[id]; k < fanin_off[id + 1]; ++k) {
      const int in = fanin[k];
      if (vals_[in].good != V::kX) continue;
      if (!assignable_cone_[in]) continue;
      V target = controlling_value(type);
      if (target == V::kX) {
        // XOR/MUX-like: any defined value unblocks; for a mux select,
        // steer toward the effect leg when recognizable, else pick 0.
        target = V::k0;
      } else {
        target = !target;  // non-controlling
      }
      if (backtrace(in, target, pi_node, pi_value)) return true;
    }
  }
  return false;
}

bool Podem::backtrace(int node, V value, int* pi_node, V* pi_value) const {
  const std::int32_t* fanin_off = g_.fanin_off();
  int cur = node;
  V v = value;
  for (int guard = 0; guard < g_.num_nodes() + 1; ++guard) {
    const GateType type = g_.type(cur);
    if (type == GateType::kInput) {
      if (frozen_[cur] || pi_assignment_[cur] != V::kX) return false;
      *pi_node = cur;
      *pi_value = v;
      return true;
    }
    const std::int32_t* fanin = g_.fanin() + fanin_off[cur];
    const int num = g_.num_fanins(cur);
    if (num == 0) return false;  // constant: cannot justify
    if (inverts(type)) v = !v;
    // Choose the first X-valued fanin whose cone contains an assignable PI.
    auto eligible = [&](int f) {
      return vals_[f].good == V::kX && assignable_cone_[f];
    };
    int chosen = -1;
    for (int i = 0; i < num; ++i)
      if (eligible(fanin[i])) {
        chosen = fanin[i];
        break;
      }
    if (chosen < 0) return false;
    // For MUX pursue the select when it is X, else the selected leg.
    if (type == GateType::kMux) {
      if (eligible(fanin[0])) {
        chosen = fanin[0];
        v = V::k0;
      } else if (vals_[fanin[0]].good != V::kX) {
        chosen = vals_[fanin[0]].good == V::k0 ? fanin[1] : fanin[2];
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
  stats_ = {};
  std::fill(pi_assignment_.begin(), pi_assignment_.end(), V::kX);
  for (const Fault& f : sites) is_site_[f.node] = 1;

  struct Decision {
    int pi_node;
    bool tried_both;
  };
  std::vector<Decision> stack;
  imply_all(sites);

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
      const V need = f.stuck_at_one ? V::k0 : V::k1;
      const V good = vals_[fault_line(f)].good;
      if (good == need) activated = true;
      if (good != !need) activation_possible = true;
    }
    if (!activated && !activation_possible) {
      need_backtrack = true;
    } else {
      collect_effects(sites);
      if (activated && !x_path_exists(sites)) need_backtrack = true;
    }

    int pi = -1;
    V pi_val = V::kX;
    if (!need_backtrack) {
      if (!next_assignment(sites, &pi, &pi_val)) need_backtrack = true;
    }

    if (!need_backtrack) {
      ++stats_.decisions;
      assign(pi, pi_val);
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
        assign(d.pi_node, !pi_assignment_[d.pi_node]);
        imply(sites);
        break;
      }
      assign(d.pi_node, V::kX);
      stack.pop_back();
    }
  }
done:
  for (const Fault& f : sites) is_site_[f.node] = 0;
  result.stats = stats_;
  if (observe::ledger_enabled() && !sites.empty()) {
    // One targeted event per PODEM attempt, attributed to the primary
    // site (secondary multi-fault sites ride along unrecorded). Recording
    // is thread-striped, so concurrent engines may record.
    const observe::TargetOutcome outcome =
        result.status == AtpgStatus::kDetected
            ? observe::TargetOutcome::kDetected
            : result.status == AtpgStatus::kUntestable
                  ? observe::TargetOutcome::kUntestable
                  : observe::TargetOutcome::kAborted;
    observe::record_targeted(observe::make_fault_key(sites[0]), outcome,
                             stats_.decisions, stats_.backtracks);
  }
  result.pi_values.assign(g_.pis().size(), V::kX);
  if (result.status == AtpgStatus::kDetected)
    for (std::size_t i = 0; i < g_.pis().size(); ++i)
      result.pi_values[i] = pi_assignment_[g_.pis()[i]];
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

/// Seed of the fill stream. The fill is random, not 0-fill: every kX input
/// of a cube becomes an independent 64-bit word, so each cube is graded
/// as 64 distinct random completions.
constexpr std::uint64_t kAtpgGradeFillSeed = 0x7357;

}  // namespace

AtpgCampaign run_combinational_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    long backtrack_limit,
                                    const FaultSimOptions& sim_options) {
  TSYN_SPAN("gl.atpg.comb");
  if (observe::ledger_enabled())
    observe::record_universe(static_cast<long>(faults.size()));
  static util::Progress& progress = util::progress("atpg.targets");
  progress.add_total(static_cast<std::int64_t>(faults.size()));
  AtpgCampaign campaign;
  campaign.status.assign(faults.size(), AtpgStatus::kAborted);
  FaultSimulator sim(n, sim_options);
  util::Rng rng(kAtpgGradeFillSeed);
  // handled[f]: fault f has its status, its own PODEM verdict or a
  // detection by an earlier cube's graded block.
  std::vector<bool> handled(faults.size(), false);
  static util::Histogram& bt_hist =
      util::metrics().histogram("atpg.comb.backtracks_per_fault");

  Podem podem(n);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (handled[fi]) continue;
    const AtpgResult r = podem.generate(faults[fi], backtrack_limit);
    campaign.total.decisions += r.stats.decisions;
    campaign.total.backtracks += r.stats.backtracks;
    campaign.total.implications += r.stats.implications;
    bt_hist.observe(r.stats.backtracks);
    campaign.status[fi] = r.status;
    handled[fi] = true;
    progress.add(1);
    if (r.status != AtpgStatus::kDetected) continue;

    // Grade the cube as 64 random completions of its X inputs against the
    // still-unhandled faults, dropping every fault the block detects, and
    // record the block (AtpgCampaign::graded_fill).
    const std::vector<V>& cube = r.pi_values;
    campaign.tests.push_back(cube);
    std::vector<Bits> block(cube.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      switch (cube[i]) {
        case V::k0: block[i] = Bits::all0(); break;
        case V::k1: block[i] = Bits::all1(); break;
        case V::kX: block[i] = Bits::known(rng.next_u64()); break;
      }
    }
    std::vector<bool> drop = handled;
    sim.run_block(block, faults, drop);
    campaign.graded_fill.push_back(std::move(block));
    std::int64_t closed = 0;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      if (!handled[j] && drop[j]) {
        handled[j] = true;
        campaign.status[j] = AtpgStatus::kDetected;
        ++closed;
      }
    }
    if (closed) progress.add(closed);
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
