#include "testability/rtl_scan.h"

#include <algorithm>
#include <set>

#include "graph/mfvs.h"
#include "graph/scc.h"
#include "rtl/sgraph.h"

namespace tsyn::testability {

namespace {

/// S-graph edge annotated with the FU it passes through (-1 = direct
/// register-to-register path).
struct LabeledEdge {
  int from = 0;
  int to = 0;
  int via_fu = -1;
};

std::vector<LabeledEdge> labeled_sgraph_edges(const rtl::Datapath& dp) {
  std::vector<LabeledEdge> edges;
  for (int r = 0; r < dp.num_regs(); ++r) {
    for (const rtl::Source& s : dp.regs[r].drivers) {
      if (s.kind == rtl::Source::Kind::kRegister) {
        edges.push_back({s.index, r, -1});
      } else if (s.kind == rtl::Source::Kind::kFu) {
        const rtl::FuInfo& fu = dp.fus[s.index];
        std::set<int> sources;
        for (const auto& port : fu.port_drivers)
          for (const rtl::Source& ps : port)
            if (ps.kind == rtl::Source::Kind::kRegister)
              sources.insert(ps.index);
        for (int src : sources) edges.push_back({src, r, s.index});
      }
    }
  }
  return edges;
}

graph::Digraph filtered_graph(const rtl::Datapath& dp,
                              const std::vector<LabeledEdge>& edges,
                              const std::set<int>& cut_regs,
                              const std::set<int>& cut_fus) {
  graph::Digraph g(dp.num_regs());
  for (const LabeledEdge& e : edges) {
    if (cut_regs.count(e.from) || cut_regs.count(e.to)) continue;
    if (e.via_fu >= 0 && cut_fus.count(e.via_fu)) continue;
    g.add_edge_unique(e.from, e.to);
  }
  return g;
}

int cyclic_node_count(const graph::Digraph& g) {
  return static_cast<int>(
      graph::nodes_on_cycles(g, /*ignore_self_loops=*/true).size());
}

}  // namespace

RtlScanResult rtl_partial_scan(rtl::Datapath& dp, bool apply) {
  const std::vector<LabeledEdge> edges = labeled_sgraph_edges(dp);
  std::set<int> cut_regs;
  std::set<int> cut_fus;
  RtlScanResult result;

  for (;;) {
    const graph::Digraph current =
        filtered_graph(dp, edges, cut_regs, cut_fus);
    const int before = cyclic_node_count(current);
    if (before == 0) break;

    // Candidates: any register on a cycle; any FU carrying a cycle edge.
    int best_gain = 0;
    int best_reg = -1;
    int best_fu = -1;
    const std::vector<graph::NodeId> cyclic =
        graph::nodes_on_cycles(current, true);
    for (graph::NodeId r : cyclic) {
      std::set<int> regs2 = cut_regs;
      regs2.insert(r);
      const int after =
          cyclic_node_count(filtered_graph(dp, edges, regs2, cut_fus));
      if (before - after > best_gain) {
        best_gain = before - after;
        best_reg = r;
        best_fu = -1;
      }
    }
    for (int f = 0; f < dp.num_fus(); ++f) {
      if (cut_fus.count(f)) continue;
      std::set<int> fus2 = cut_fus;
      fus2.insert(f);
      const int after =
          cyclic_node_count(filtered_graph(dp, edges, cut_regs, fus2));
      // Strict improvement ties go to the transparent register: it leaves
      // all functional registers untouched.
      if (before - after >= std::max(best_gain, 1) &&
          (best_reg < 0 || before - after > best_gain)) {
        best_gain = before - after;
        best_fu = f;
        best_reg = -1;
      }
    }
    if (best_reg < 0 && best_fu < 0) {
      // Fall back: cut an arbitrary cyclic register (guaranteed progress
      // since removing a cyclic node destroys at least its own cycles).
      best_reg = cyclic.front();
    }
    if (best_fu >= 0) {
      cut_fus.insert(best_fu);
      result.transparent_fus.push_back(best_fu);
    } else {
      cut_regs.insert(best_reg);
      result.scan_regs.push_back(best_reg);
    }
  }

  if (apply)
    for (int r : result.scan_regs)
      dp.regs[r].test_kind = rtl::TestRegKind::kScan;
  std::sort(result.scan_regs.begin(), result.scan_regs.end());
  std::sort(result.transparent_fus.begin(), result.transparent_fus.end());
  return result;
}

graph::MfvsResult register_only_partial_scan(const rtl::Datapath& dp) {
  const graph::Digraph s = rtl::build_sgraph(dp);
  return graph::exact_mfvs(s, {.ignore_self_loops = true});
}

}  // namespace tsyn::testability
