#include "rtl/sgraph.h"

#include "graph/paths.h"
#include "graph/scc.h"

namespace tsyn::rtl {

graph::Digraph build_sgraph(const Datapath& dp, bool exclude_scan) {
  const int n = dp.num_regs();
  graph::Digraph g(n);
  auto scanned = [&](int r) {
    return exclude_scan && dp.regs[r].test_kind != TestRegKind::kNone;
  };
  for (int r = 0; r < n; ++r) {
    if (scanned(r)) continue;
    for (const Source& s : dp.regs[r].drivers) {
      if (s.kind == Source::Kind::kRegister) {
        if (!scanned(s.index)) g.add_edge_unique(s.index, r);
      } else if (s.kind == Source::Kind::kFu) {
        const FuInfo& fu = dp.fus[s.index];
        for (const auto& port : fu.port_drivers)
          for (const Source& ps : port)
            if (ps.kind == Source::Kind::kRegister && !scanned(ps.index))
              g.add_edge_unique(ps.index, r);
      }
    }
  }
  return g;
}

std::string to_string(LoopClass c) {
  switch (c) {
    case LoopClass::kSelfLoop: return "self";
    case LoopClass::kCdfgLoop: return "cdfg";
    case LoopClass::kAssignmentLoop: return "assignment";
  }
  return "?";
}

std::vector<DatapathLoop> analyze_loops(const Datapath& dp, bool exclude_scan,
                                        std::size_t max_loops) {
  const graph::Digraph g = build_sgraph(dp, exclude_scan);
  std::vector<DatapathLoop> out;
  for (graph::Cycle& c : graph::elementary_cycles(g, max_loops)) {
    DatapathLoop loop;
    if (c.size() == 1) {
      loop.kind = LoopClass::kSelfLoop;
    } else {
      loop.kind = LoopClass::kAssignmentLoop;
      for (graph::NodeId r : c)
        if (dp.regs[r].holds_state) {
          loop.kind = LoopClass::kCdfgLoop;
          break;
        }
    }
    loop.registers = std::move(c);
    out.push_back(std::move(loop));
  }
  return out;
}

namespace {

/// Number of nodes in strongly connected components of at least two nodes
/// of `g` for which `counts(node)` holds: a node lies on a cycle of length
/// >= 2 exactly when its component has another member.
template <typename Pred>
int nodes_on_long_cycles(const graph::Digraph& g, Pred counts) {
  int n = 0;
  for (const auto& members : graph::strongly_connected_components(g).members)
    if (members.size() >= 2)
      for (graph::NodeId u : members) n += counts(u);
  return n;
}

}  // namespace

LoopStats loop_stats(const Datapath& dp, bool exclude_scan) {
  const graph::Digraph g = build_sgraph(dp, exclude_scan);
  const int n = g.num_nodes();
  LoopStats stats;
  for (int r = 0; r < n; ++r) stats.self_loops += g.has_self_loop(r);
  stats.cdfg_loops = nodes_on_long_cycles(
      g, [&](graph::NodeId r) { return dp.regs[r].holds_state; });
  // Assignment loops run through stateless registers only: the cycles of
  // the subgraph those registers induce.
  std::vector<bool> stateless(n);
  for (int r = 0; r < n; ++r) stateless[r] = !dp.regs[r].holds_state;
  stats.assignment_loops = nodes_on_long_cycles(
      g.induced_subgraph(stateless), [](graph::NodeId) { return true; });
  return stats;
}

int datapath_sequential_depth(const Datapath& dp, bool exclude_scan) {
  const graph::Digraph g = build_sgraph(dp, exclude_scan);
  const auto depth = graph::sequential_depth(g);
  return depth ? *depth : -1;
}

int io_register_count(const Datapath& dp) {
  int count = 0;
  for (const RegisterInfo& r : dp.regs)
    if (r.is_input || r.is_output) ++count;
  return count;
}

}  // namespace tsyn::rtl
