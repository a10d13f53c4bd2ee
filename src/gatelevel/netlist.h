// Gate-level netlist and three-valued parallel logic simulation.
//
// The substrate for every fault-coverage and test-effort measurement: RTL
// datapaths expand into this representation (expand.h), fault simulation and
// ATPG run on it. Signals are dense node ids; each node is driven by a
// primary input, a constant, a combinational gate, or a D flip-flop (the
// node is the FF's Q; fanin[0] is its D).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tsyn::gl {

enum class GateType {
  kInput,   ///< primary input
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,   ///< 2-input
  kXnor,  ///< 2-input
  kMux,   ///< fanins = {sel, a, b}: sel ? b : a
  kDff,   ///< fanins = {d}; node value is Q
};

std::string to_string(GateType t);

/// Widest gate the netlist holds. Every simulator evaluates a gate from a
/// fixed on-stack fanin buffer of this size; add_gate splits wider n-ary
/// gates into a tree, add_gate_raw rejects them.
inline constexpr int kMaxFanin = 16;

struct Node {
  GateType type = GateType::kBuf;
  std::vector<int> fanins;
  std::string name;  ///< optional, for reports
};

/// 64 patterns in parallel with three-valued logic: bit i of `x` set means
/// lane i is unknown; otherwise bit i of `v` is the value.
struct Bits {
  std::uint64_t v = 0;
  std::uint64_t x = ~0ULL;  ///< all-unknown by default

  static Bits known(std::uint64_t value) { return {value, 0}; }
  static Bits all0() { return {0, 0}; }
  static Bits all1() { return {~0ULL, 0}; }
  static Bits unknown() { return {0, ~0ULL}; }
};

class Netlist {
 public:
  // Node names are a reporting/provenance key, so non-empty names are kept
  // unique: a second insertion of name N lands as "N#1", then "N#2", ...
  // (validate() asserts uniqueness in debug builds).
  int add_input(const std::string& name = "");
  int add_const(bool value);
  /// Pre-sizes the node table (and the name map's bucket array) for a
  /// construction pass that knows roughly how many nodes it will add —
  /// expand_datapath does, and reallocation during expansion is pure
  /// waste. A hint, not a limit.
  void reserve_nodes(int expected_nodes);
  /// Adds a gate after constant folding. An AND/OR/NAND/NOR wider than
  /// kMaxFanin becomes a balanced tree of AND/OR gates of at most kMaxFanin
  /// inputs under a root of the requested type (which gets `name`).
  int add_gate(GateType type, const std::vector<int>& fanins,
               const std::string& name = "");
  /// add_gate without constant folding or splitting (throws above
  /// kMaxFanin fanins). For experiment rigs that need two netlists to stay
  /// structurally identical while a tied constant differs (e.g. a
  /// test-mode pin strapped 0 vs 1).
  int add_gate_raw(GateType type, const std::vector<int>& fanins,
                   const std::string& name = "");
  /// Adds a DFF; its D connection may be set later with set_dff_input
  /// (pass -1 now) to allow feedback loops.
  int add_dff(int d_fanin, const std::string& name = "");
  void set_dff_input(int dff_node, int d_fanin);
  void mark_output(int node);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int n) const { return nodes_[n]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<int>& primary_inputs() const { return inputs_; }
  const std::vector<int>& primary_outputs() const { return outputs_; }
  const std::vector<int>& flops() const { return flops_; }

  /// Combinational nodes in topological order (DFF Qs and inputs are
  /// sources). Built lazily; invalidated by structural edits.
  const std::vector<int>& topo_order() const;

  /// Fanout lists (built lazily with topo_order).
  const std::vector<std::vector<int>>& fanouts() const;

  /// Number of gate-equivalents (combinational gates + FFs; buffers free).
  int gate_count() const;

  /// Checks structure: fanin arities, no combinational cycles.
  void validate() const;

  /// Opaque cache slot for the lowered SoA simulation form, owned by
  /// gl::SimGraph::of (simgraph.h) and reset together with the topo and
  /// fanout caches on every structural edit. Opaque here so netlist.h
  /// stays free of the simgraph dependency; nobody else should touch it.
  const std::shared_ptr<const void>& lowered_cache() const {
    return lowered_;
  }
  void set_lowered_cache(std::shared_ptr<const void> cache) const {
    lowered_ = std::move(cache);
  }

 private:
  void invalidate_caches();
  /// Returns `name` unchanged on first use, "<name>#k" on collisions.
  std::string unique_name(const std::string& name);

  std::vector<Node> nodes_;
  /// Per base name: next collision suffix (0 = only the base used so far).
  /// Only ever probed point-wise, never iterated, so hash order is safe.
  std::unordered_map<std::string, int> name_uses_;
  std::vector<int> inputs_;
  std::vector<int> outputs_;
  std::vector<int> flops_;
  mutable std::vector<int> topo_;
  mutable std::vector<std::vector<int>> fanouts_;
  mutable bool caches_valid_ = false;
  mutable std::shared_ptr<const void> lowered_;
};

/// Evaluates one combinational gate from fanin values. Header-inline so
/// the simulation hot loops (simulate_frame and its callers) fold the
/// whole evaluation into one switch instead of an out-of-line call;
/// the PPSFP kernels in widebits.h are these same formulas lifted to W
/// words and must stay bit-identical to them at every W.
inline Bits eval_gate(GateType type, const Bits* in, int num_fanins) {
  auto and2 = [](Bits a, Bits b) {
    Bits r;
    r.v = a.v & b.v;
    // Unknown unless either side is a known 0.
    r.x = (a.x | b.x) & ~((~a.v & ~a.x) | (~b.v & ~b.x));
    r.v &= ~r.x;
    return r;
  };
  auto or2 = [](Bits a, Bits b) {
    Bits r;
    r.v = (a.v & ~a.x) | (b.v & ~b.x);
    r.x = (a.x | b.x) & ~((a.v & ~a.x) | (b.v & ~b.x));
    return r;
  };
  auto inv = [](Bits a) {
    return Bits{~a.v & ~a.x, a.x};
  };
  auto xor2 = [](Bits a, Bits b) {
    Bits r;
    r.x = a.x | b.x;
    r.v = (a.v ^ b.v) & ~r.x;
    return r;
  };

  switch (type) {
    case GateType::kConst0: return Bits::all0();
    case GateType::kConst1: return Bits::all1();
    case GateType::kBuf: return in[0];
    case GateType::kNot: return inv(in[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      Bits r = in[0];
      for (int i = 1; i < num_fanins; ++i) r = and2(r, in[i]);
      return type == GateType::kNand ? inv(r) : r;
    }
    case GateType::kOr:
    case GateType::kNor: {
      Bits r = in[0];
      for (int i = 1; i < num_fanins; ++i) r = or2(r, in[i]);
      return type == GateType::kNor ? inv(r) : r;
    }
    case GateType::kXor: return xor2(in[0], in[1]);
    case GateType::kXnor: return inv(xor2(in[0], in[1]));
    case GateType::kMux: {
      // sel ? b : a, with X-pessimism when sel is unknown and a != b.
      const Bits sel = in[0];
      const Bits a = in[1];
      const Bits b = in[2];
      Bits r;
      const std::uint64_t sel_known = ~sel.x;
      const std::uint64_t pick_b = sel.v & sel_known;
      const std::uint64_t pick_a = ~sel.v & sel_known;
      r.v = (a.v & pick_a) | (b.v & pick_b);
      r.x = (a.x & pick_a) | (b.x & pick_b);
      // Unknown select: known only where a and b agree and are known.
      const std::uint64_t agree = ~(a.v ^ b.v) & ~a.x & ~b.x;
      r.v |= sel.x & agree & a.v;
      r.x |= sel.x & ~agree;
      return r;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;  // sources: handled by the caller
  }
  assert(false && "eval_gate on a source node");
  return Bits::unknown();
}

struct Fault;

/// Full-parallel simulation of one clock frame.
/// `values` must be sized num_nodes; entries for kInput and kDff nodes are
/// taken as given (set them before calling), all others are computed.
/// With `fault` set, simulates the faulty machine instead: a stuck output
/// pins its node (sources included), a stuck input pin feeds its gate the
/// stuck value, and DFF pin faults have no effect.
void simulate_frame(const Netlist& n, std::vector<Bits>& values,
                    const Fault* fault = nullptr);

/// Multi-frame sequential simulation. `input_frames[f]` gives the PI values
/// of frame f (indexed by position in primary_inputs()). FFs start unknown
/// unless `initial_state` is provided (indexed by position in flops()).
/// Returns per-frame node values.
std::vector<std::vector<Bits>> simulate_sequence(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Bits>* initial_state = nullptr);

}  // namespace tsyn::gl
