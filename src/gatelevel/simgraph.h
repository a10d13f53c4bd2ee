// Compiled, levelized structure-of-arrays simulation form of a Netlist.
//
// `gl::Netlist` is the construction substrate: per-node heap fanin
// vectors, names, lazy caches — convenient to build and edit, hostile to
// simulate (every gate evaluation chases two or three pointers). SimGraph
// is the compiled form the hot paths run on: lowered once per netlist,
// node ids preserved, everything flattened into contiguous arrays —
//
//  - type[] / fanin_off[] / fanin[]: gate kind plus a flat CSR fanin arena
//    (one indexed load per pin instead of a vector indirection);
//  - order[] / pos_of[] / level_of[] / level_off[]: a levelized
//    topological order (sources at level 0, each gate one past its
//    deepest fanin) with per-level spans, so event sweeps can skip whole
//    untouched levels;
//  - fanout_off[] / fanout[]: CSR fanouts over combinational edges only
//    (DFF D-edges are capture boundaries, never propagation targets);
//  - pis / pos / ffs and flags[]: dense role maps shared by every engine.
//
// Lowering is cached on the Netlist (SimGraph::of) and invalidated by
// structural edits, so callers holding a mutable Netlist keep their
// existing entry points: simulate_frame, FaultSimulator, and the PPSFP
// and sequential engines all lower-and-cache internally. Contract: the
// cache is built on the calling thread — entry points that shard work
// call SimGraph::of (or construct their propagators) before fanning out,
// exactly like the Netlist's own lazy topo/fanout caches.
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/netlist.h"

namespace tsyn::gl {

class SimGraph {
 public:
  /// Per-node role flags (flags()[id]): primary output / D flip-flop.
  static constexpr std::uint8_t kFlagPo = 1;
  static constexpr std::uint8_t kFlagDff = 4;

  /// Lowers `n` into a fresh SimGraph. O(nodes + edges); throws on
  /// combinational cycles (via Netlist::topo_order).
  static SimGraph lower(const Netlist& n);

  /// Lower-and-cache: returns the SimGraph for `n`, building it on first
  /// use and after any structural edit. NOT thread-safe on the building
  /// call — warm it on the calling thread before sharding work, like
  /// Netlist::topo_order().
  static const SimGraph& of(const Netlist& n);

  int num_nodes() const { return static_cast<int>(type_.size()); }
  int num_levels() const { return static_cast<int>(level_off_.size()) - 1; }

  GateType type(int id) const { return static_cast<GateType>(type_[id]); }
  const std::uint8_t* types() const { return type_.data(); }

  /// Flat fanin arena: pins of node `id` are fanin()[fanin_off()[id]]
  /// .. fanin()[fanin_off()[id+1]). Unconnected DFF D-pins are -1.
  const std::int32_t* fanin_off() const { return fanin_off_.data(); }
  const std::int32_t* fanin() const { return fanin_.data(); }
  int num_fanins(int id) const { return fanin_off_[id + 1] - fanin_off_[id]; }

  /// Levelized topological order over ALL nodes (sources first). Any
  /// prefix-respecting evaluation of it is a valid simulation schedule.
  const std::vector<std::int32_t>& order() const { return order_; }
  /// order() position of node `id`.
  const std::int32_t* pos_of() const { return pos_of_.data(); }
  /// Level of node `id` (sources 0, gates 1 + max fanin level).
  const std::int32_t* level_of() const { return level_of_.data(); }
  /// Level L occupies order() positions [level_off()[L], level_off()[L+1]).
  const std::int32_t* level_off() const { return level_off_.data(); }

  /// CSR fanouts over combinational edges (DFF targets excluded — state
  /// capture is the engines' job). Every target sits at a strictly deeper
  /// level than its source, which is what lets event sweeps walk levels
  /// monotonically.
  const std::int32_t* fanout_off() const { return fanout_off_.data(); }
  const std::int32_t* fanout() const { return fanout_.data(); }

  const std::uint8_t* flags() const { return flags_.data(); }

  /// Dense role index maps (same order as the Netlist's lists).
  const std::vector<std::int32_t>& pis() const { return pis_; }
  const std::vector<std::int32_t>& pos() const { return pos_; }
  const std::vector<std::int32_t>& ffs() const { return ffs_; }

 private:
  std::vector<std::uint8_t> type_;
  std::vector<std::int32_t> fanin_off_, fanin_;
  std::vector<std::int32_t> order_, pos_of_, level_of_, level_off_;
  std::vector<std::int32_t> fanout_off_, fanout_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::int32_t> pis_, pos_, ffs_;
};

}  // namespace tsyn::gl
