#include "graph/cycles.h"

#include <algorithm>

#include "graph/scc.h"

namespace tsyn::graph {

namespace {

// Johnson's algorithm state for the SCC currently being processed.
class JohnsonState {
 public:
  JohnsonState(const Digraph& g, std::size_t max_cycles,
               std::vector<Cycle>* out)
      : g_(g),
        blocked_(g.num_nodes(), false),
        block_list_(g.num_nodes()),
        out_(out),
        max_cycles_(max_cycles) {}

  // Enumerates all cycles whose minimum node is `start`, restricted to nodes
  // >= start that are in start's SCC (classic Johnson restriction).
  void run(NodeId start, const std::vector<bool>& in_scope) {
    start_ = start;
    in_scope_ = &in_scope;
    stack_.clear();
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      blocked_[u] = false;
      block_list_[u].clear();
    }
    circuit(start);
  }

  bool full() const { return out_->size() >= max_cycles_; }

 private:
  bool circuit(NodeId v) {
    if (full()) return true;
    bool found = false;
    stack_.push_back(v);
    blocked_[v] = true;
    for (NodeId w : g_.successors(v)) {
      if (!(*in_scope_)[w] || w < start_) continue;
      if (w == start_) {
        out_->push_back(stack_);
        found = true;
        if (full()) break;
      } else if (!blocked_[w]) {
        if (circuit(w)) found = true;
        if (full()) break;
      }
    }
    if (found) {
      unblock(v);
    } else {
      for (NodeId w : g_.successors(v)) {
        if (!(*in_scope_)[w] || w < start_) continue;
        auto& bl = block_list_[w];
        if (std::find(bl.begin(), bl.end(), v) == bl.end()) bl.push_back(v);
      }
    }
    stack_.pop_back();
    return found;
  }

  void unblock(NodeId u) {
    blocked_[u] = false;
    auto pending = std::move(block_list_[u]);
    block_list_[u].clear();
    for (NodeId w : pending)
      if (blocked_[w]) unblock(w);
  }

  const Digraph& g_;
  std::vector<bool> blocked_;
  std::vector<std::vector<NodeId>> block_list_;
  std::vector<NodeId> stack_;
  std::vector<Cycle>* out_;
  std::size_t max_cycles_;
  NodeId start_ = 0;
  const std::vector<bool>* in_scope_ = nullptr;
};

}  // namespace

std::vector<Cycle> elementary_cycles(const Digraph& g,
                                     std::size_t max_cycles) {
  std::vector<Cycle> cycles;
  JohnsonState state(g, max_cycles, &cycles);

  // Process nodes in increasing order; the scope for node s is the SCC of s
  // in the subgraph induced by nodes >= s.
  for (NodeId s = 0; s < g.num_nodes() && !state.full(); ++s) {
    std::vector<bool> keep(g.num_nodes(), false);
    for (NodeId u = s; u < g.num_nodes(); ++u) keep[u] = true;
    std::vector<NodeId> map;
    const Digraph sub = g.induced_subgraph(keep, &map);
    const SccResult scc = strongly_connected_components(sub);

    std::vector<bool> in_scope(g.num_nodes(), false);
    const int comp_of_s = scc.component[map[s]];
    bool nontrivial = scc.members[comp_of_s].size() > 1 || g.has_self_loop(s);
    if (!nontrivial) continue;
    for (NodeId u = s; u < g.num_nodes(); ++u)
      if (scc.component[map[u]] == comp_of_s) in_scope[u] = true;

    state.run(s, in_scope);
  }

  std::stable_sort(cycles.begin(), cycles.end(),
                   [](const Cycle& a, const Cycle& b) {
                     return a.size() < b.size();
                   });
  return cycles;
}

}  // namespace tsyn::graph
