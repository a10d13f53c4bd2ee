#include "gatelevel/netlist.h"

#include <cassert>
#include <deque>
#include <set>
#include <stdexcept>

#include "gatelevel/faults.h"
#include "gatelevel/simgraph.h"

namespace tsyn::gl {

std::string to_string(GateType t) {
  switch (t) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXor: return "xor";
    case GateType::kXnor: return "xnor";
    case GateType::kMux: return "mux";
    case GateType::kDff: return "dff";
  }
  return "?";
}

namespace {

int expected_arity(GateType t) {
  switch (t) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff:
      return 1;
    case GateType::kXor:
    case GateType::kXnor:
      return 2;
    case GateType::kMux:
      return 3;
    case GateType::kAnd:
    case GateType::kOr:
    case GateType::kNand:
    case GateType::kNor:
      return -1;  // 2+
  }
  return -1;
}

}  // namespace

std::string Netlist::unique_name(const std::string& name) {
  if (name.empty()) return name;
  auto [it, fresh] = name_uses_.try_emplace(name, 0);
  if (fresh) return name;
  // Probe "<name>#k" until free; explicitly inserted "<name>#k" nodes
  // occupy their slot in the same map, so the loop cannot re-issue them.
  std::string candidate;
  do {
    candidate = name + "#" + std::to_string(++it->second);
  } while (!name_uses_.try_emplace(candidate, 0).second);
  return candidate;
}

void Netlist::reserve_nodes(int expected_nodes) {
  if (expected_nodes <= num_nodes()) return;
  nodes_.reserve(static_cast<std::size_t>(expected_nodes));
  // Most nodes carry a distinct name; sizing the hash table with them
  // avoids rehashing mid-construction.
  name_uses_.reserve(static_cast<std::size_t>(expected_nodes));
}

int Netlist::add_input(const std::string& name) {
  invalidate_caches();
  nodes_.push_back({GateType::kInput, {}, unique_name(name)});
  inputs_.push_back(num_nodes() - 1);
  return num_nodes() - 1;
}

int Netlist::add_const(bool value) {
  invalidate_caches();
  nodes_.push_back({value ? GateType::kConst1 : GateType::kConst0, {}, ""});
  return num_nodes() - 1;
}

int Netlist::add_gate(GateType type, const std::vector<int>& fanins,
                      const std::string& name) {
  const int arity = expected_arity(type);
  if (arity >= 0 && static_cast<int>(fanins.size()) != arity)
    throw std::runtime_error("gate arity mismatch for " + to_string(type));
  if (arity < 0 && fanins.size() < 2)
    throw std::runtime_error("n-ary gate needs >= 2 fanins");
  for (int f : fanins)
    if (f < 0 || f >= num_nodes())
      throw std::runtime_error("bad fanin id");

  // Constant folding: tied inputs would otherwise create structurally
  // untestable faults that real synthesis removes.
  auto c0 = [&](int f) { return nodes_[f].type == GateType::kConst0; };
  auto c1 = [&](int f) { return nodes_[f].type == GateType::kConst1; };
  auto constant = [&](bool v) { return add_const(v); };
  switch (type) {
    case GateType::kNot:
      if (c0(fanins[0])) return constant(true);
      if (c1(fanins[0])) return constant(false);
      break;
    case GateType::kAnd:
    case GateType::kNand: {
      std::vector<int> live;
      for (int f : fanins) {
        if (c0(f)) return constant(type == GateType::kNand);
        if (!c1(f)) live.push_back(f);
      }
      if (live.empty()) return constant(type == GateType::kAnd);
      if (live.size() == 1)
        return type == GateType::kAnd
                   ? live[0]
                   : add_gate(GateType::kNot, {live[0]}, name);
      if (live.size() < fanins.size())
        return add_gate(type, live, name);
      break;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::vector<int> live;
      for (int f : fanins) {
        if (c1(f)) return constant(type == GateType::kOr);
        if (!c0(f)) live.push_back(f);
      }
      if (live.empty()) return constant(type == GateType::kNor);
      if (live.size() == 1)
        return type == GateType::kOr
                   ? live[0]
                   : add_gate(GateType::kNot, {live[0]}, name);
      if (live.size() < fanins.size())
        return add_gate(type, live, name);
      break;
    }
    case GateType::kXor:
      if (c0(fanins[0])) return fanins[1];
      if (c0(fanins[1])) return fanins[0];
      if (c1(fanins[0])) return add_gate(GateType::kNot, {fanins[1]}, name);
      if (c1(fanins[1])) return add_gate(GateType::kNot, {fanins[0]}, name);
      break;
    case GateType::kXnor:
      if (c1(fanins[0])) return fanins[1];
      if (c1(fanins[1])) return fanins[0];
      if (c0(fanins[0])) return add_gate(GateType::kNot, {fanins[1]}, name);
      if (c0(fanins[1])) return add_gate(GateType::kNot, {fanins[0]}, name);
      break;
    case GateType::kMux:
      // fanins = {sel, a, b}: sel ? b : a.
      if (c0(fanins[0])) return fanins[1];
      if (c1(fanins[0])) return fanins[2];
      if (fanins[1] == fanins[2]) return fanins[1];
      break;
    default:
      break;
  }

  // Only AND/OR/NAND/NOR are n-ary. A wide one becomes near-equal groups
  // of at most kMaxFanin fanins, each reduced by the non-inverting gate;
  // the group outputs recurse under the requested type, so the inversion
  // stays at the root. Groups hold >= 8 fanins, never a lone wire.
  const std::size_t width = fanins.size();
  if (width > static_cast<std::size_t>(kMaxFanin)) {
    const GateType inner = type == GateType::kNand  ? GateType::kAnd
                           : type == GateType::kNor ? GateType::kOr
                                                    : type;
    const std::size_t groups = (width + kMaxFanin - 1) / kMaxFanin;
    std::vector<int> roots;
    for (std::size_t g = 0, lo = 0; g < groups; ++g) {
      const std::size_t hi = lo + (width - lo) / (groups - g);
      roots.push_back(add_gate_raw(
          inner, std::vector<int>(fanins.begin() + lo, fanins.begin() + hi)));
      lo = hi;
    }
    return add_gate(type, roots, name);
  }
  return add_gate_raw(type, fanins, name);
}

int Netlist::add_gate_raw(GateType type, const std::vector<int>& fanins,
                          const std::string& name) {
  const int arity = expected_arity(type);
  if (arity >= 0 && static_cast<int>(fanins.size()) != arity)
    throw std::runtime_error("gate arity mismatch for " + to_string(type));
  if (arity < 0 && fanins.size() < 2)
    throw std::runtime_error("n-ary gate needs >= 2 fanins");
  if (fanins.size() > static_cast<std::size_t>(kMaxFanin))
    throw std::runtime_error("gate wider than kMaxFanin fanins");
  for (int f : fanins)
    if (f < 0 || f >= num_nodes())
      throw std::runtime_error("bad fanin id");
  invalidate_caches();
  nodes_.push_back({type, fanins, unique_name(name)});
  return num_nodes() - 1;
}

int Netlist::add_dff(int d_fanin, const std::string& name) {
  invalidate_caches();
  nodes_.push_back({GateType::kDff, {d_fanin}, unique_name(name)});
  flops_.push_back(num_nodes() - 1);
  return num_nodes() - 1;
}

void Netlist::set_dff_input(int dff_node, int d_fanin) {
  if (nodes_.at(dff_node).type != GateType::kDff)
    throw std::runtime_error("set_dff_input on non-DFF");
  if (d_fanin < 0 || d_fanin >= num_nodes())
    throw std::runtime_error("bad D fanin");
  invalidate_caches();
  nodes_[dff_node].fanins[0] = d_fanin;
}

void Netlist::mark_output(int node) {
  if (node < 0 || node >= num_nodes())
    throw std::runtime_error("bad output node");
  outputs_.push_back(node);
}

void Netlist::invalidate_caches() {
  caches_valid_ = false;
  lowered_.reset();  // the SimGraph mirrors the structure; rebuild lazily
}

const std::vector<int>& Netlist::topo_order() const {
  if (!caches_valid_) {
    // Kahn over combinational edges only (DFF D-edges are cut).
    std::vector<int> in_deg(num_nodes(), 0);
    fanouts_.assign(num_nodes(), {});
    for (int n = 0; n < num_nodes(); ++n) {
      if (nodes_[n].type == GateType::kDff) {
        if (nodes_[n].fanins[0] >= 0)
          fanouts_[nodes_[n].fanins[0]].push_back(n);  // recorded, not walked
        continue;
      }
      for (int f : nodes_[n].fanins) {
        ++in_deg[n];
        fanouts_[f].push_back(n);
      }
    }
    topo_.clear();
    std::deque<int> ready;
    for (int n = 0; n < num_nodes(); ++n)
      if (in_deg[n] == 0) ready.push_back(n);
    while (!ready.empty()) {
      const int n = ready.front();
      ready.pop_front();
      topo_.push_back(n);
      for (int s : fanouts_[n]) {
        if (nodes_[s].type == GateType::kDff) continue;
        if (--in_deg[s] == 0) ready.push_back(s);
      }
    }
    if (static_cast<int>(topo_.size()) != num_nodes())
      throw std::runtime_error("combinational cycle in netlist");
    caches_valid_ = true;
  }
  return topo_;
}

const std::vector<std::vector<int>>& Netlist::fanouts() const {
  topo_order();
  return fanouts_;
}

int Netlist::gate_count() const {
  int count = 0;
  for (const Node& n : nodes_) {
    switch (n.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kBuf:
        break;
      default:
        ++count;
    }
  }
  return count;
}

void Netlist::validate() const {
  for (const Node& n : nodes_) {
    const int arity = expected_arity(n.type);
    if (arity >= 0 && static_cast<int>(n.fanins.size()) != arity)
      throw std::runtime_error("arity violation on " + to_string(n.type));
    for (int f : n.fanins)
      if (f < 0 || f >= num_nodes())
        throw std::runtime_error("dangling fanin");
  }
#ifndef NDEBUG
  {
    // Non-empty names must be unique — provenance and reports key on them.
    std::set<std::string> seen;
    for (const Node& n : nodes_)
      assert(n.name.empty() || seen.insert(n.name).second);
  }
#endif
  topo_order();  // throws on combinational cycles
}

void simulate_frame(const Netlist& n, std::vector<Bits>& values,
                    const Fault* fault) {
  assert(values.size() == static_cast<std::size_t>(n.num_nodes()));
  // Runs on the compiled SoA form: flat fanin arena, levelized order —
  // one indexed load per pin instead of chasing per-node heap vectors.
  const SimGraph& g = SimGraph::of(n);
  const int fnode = fault ? fault->node : -1;
  const int fpin = fault ? fault->fanin_index : -1;
  const Bits stuck =
      fault && fault->stuck_at_one ? Bits::all1() : Bits::all0();
  Bits fanin_vals[kMaxFanin];
  const std::int32_t* fanin = g.fanin();
  const std::int32_t* off = g.fanin_off();
  Bits* vals = values.data();
  for (const std::int32_t id : g.order()) {
    const GateType type = g.type(id);
    // Sources (kInput, kDff) are preset by the caller.
    if (type != GateType::kInput && type != GateType::kDff) {
      const std::int32_t lo = off[id];
      const int nf = off[id + 1] - lo;
      assert(nf <= kMaxFanin);
      for (int i = 0; i < nf; ++i) fanin_vals[i] = vals[fanin[lo + i]];
      if (id == fnode && fpin >= 0) fanin_vals[fpin] = stuck;
      vals[id] = eval_gate(type, fanin_vals, nf);
    }
    if (id == fnode && fpin < 0) vals[id] = stuck;
  }
}

std::vector<std::vector<Bits>> simulate_sequence(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Bits>* initial_state) {
  std::vector<std::vector<Bits>> result;
  std::vector<Bits> state(n.flops().size(), Bits::unknown());
  if (initial_state) state = *initial_state;
  for (const auto& frame_inputs : input_frames) {
    std::vector<Bits> values(n.num_nodes(), Bits::unknown());
    for (std::size_t i = 0; i < n.primary_inputs().size(); ++i)
      values[n.primary_inputs()[i]] =
          i < frame_inputs.size() ? frame_inputs[i] : Bits::unknown();
    for (std::size_t i = 0; i < n.flops().size(); ++i)
      values[n.flops()[i]] = state[i];
    simulate_frame(n, values);
    for (std::size_t i = 0; i < n.flops().size(); ++i) {
      const int d = n.node(n.flops()[i]).fanins[0];
      state[i] = d >= 0 ? values[d] : Bits::unknown();
    }
    result.push_back(std::move(values));
  }
  return result;
}

}  // namespace tsyn::gl
