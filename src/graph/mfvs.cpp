#include "graph/mfvs.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "graph/scc.h"

namespace tsyn::graph {

namespace {

// Strips self-loops if requested; MFVS then only needs to kill non-trivial
// SCCs.
Digraph normalize(const Digraph& g, const MfvsOptions& opts) {
  Digraph h(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (NodeId v : g.successors(u))
      if (!(opts.ignore_self_loops && u == v)) h.add_edge_unique(u, v);
  return h;
}

// Nodes currently on a cycle of h restricted to `alive`.
std::vector<NodeId> cyclic_nodes(const Digraph& h,
                                 const std::vector<bool>& alive) {
  std::vector<NodeId> map;
  const Digraph sub = h.induced_subgraph(alive, &map);
  const SccResult scc = strongly_connected_components(sub);
  std::vector<NodeId> out;
  for (NodeId u = 0; u < h.num_nodes(); ++u) {
    if (!alive[u]) continue;
    const NodeId su = map[u];
    if (scc.members[scc.component[su]].size() > 1 || sub.has_self_loop(su))
      out.push_back(u);
  }
  return out;
}

}  // namespace

std::vector<NodeId> greedy_mfvs(const Digraph& g, MfvsOptions opts) {
  const Digraph h = normalize(g, opts);
  std::vector<bool> alive(h.num_nodes(), true);
  std::vector<NodeId> selected;

  for (;;) {
    const std::vector<NodeId> cyclic = cyclic_nodes(h, alive);
    if (cyclic.empty()) break;

    // Degree products restricted to the live cyclic subgraph.
    std::vector<bool> in_cyc(h.num_nodes(), false);
    for (NodeId u : cyclic) in_cyc[u] = true;
    NodeId best = -1;
    long best_score = -1;
    for (NodeId u : cyclic) {
      long in_d = 0;
      long out_d = 0;
      for (NodeId p : h.predecessors(u))
        if (alive[p] && in_cyc[p]) ++in_d;
      for (NodeId s : h.successors(u))
        if (alive[s] && in_cyc[s]) ++out_d;
      const long score = in_d * out_d;
      if (score > best_score) {
        best_score = score;
        best = u;
      }
    }
    assert(best >= 0);
    selected.push_back(best);
    alive[best] = false;
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

namespace {

// Upper bound on branch-and-bound nodes per exact_mfvs call. The design
// graphs in this repository need at most a few hundred.
constexpr long kBranchNodeBudget = 200000;

// Working graph for reduce-and-branch: duplicate-free sorted adjacency
// lists; deleted nodes keep empty lists and alive == 0.
struct WorkGraph {
  std::vector<std::vector<NodeId>> succ, pred;
  std::vector<char> alive;
  int live = 0;

  int size() const { return static_cast<int>(alive.size()); }
};

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

void insert_sorted(std::vector<NodeId>& v, NodeId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

void erase_sorted(std::vector<NodeId>& v, NodeId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
}

void remove_node(WorkGraph& w, NodeId v) {
  for (NodeId p : w.pred[v])
    if (p != v) erase_sorted(w.succ[p], v);
  for (NodeId s : w.succ[v])
    if (s != v) erase_sorted(w.pred[s], v);
  w.succ[v].clear();
  w.pred[v].clear();
  w.alive[v] = 0;
  --w.live;
}

// Keeps v out of the set: every path p -> v -> s becomes an edge p -> s (a
// self-loop when p == s), so the cycles through v survive without it.
void bypass_node(WorkGraph& w, NodeId v) {
  const std::vector<NodeId> preds = w.pred[v];
  const std::vector<NodeId> succs = w.succ[v];
  remove_node(w, v);
  for (NodeId p : preds)
    for (NodeId s : succs) {
      insert_sorted(w.succ[p], s);
      insert_sorted(w.pred[s], p);
    }
}

// Levy–Low contraction to a fixpoint, sweeping ids in ascending order.
// Forced nodes are appended to `taken`. The sweep order is a tie-break:
// it decides which of several minimum sets is returned.
void contract(WorkGraph& w, std::vector<NodeId>& taken) {
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId v = 0; v < w.size(); ++v) {
      if (!w.alive[v]) continue;
      if (contains(w.succ[v], v)) {
        taken.push_back(v);
        remove_node(w, v);
      } else if (w.pred[v].empty() || w.succ[v].empty()) {
        remove_node(w, v);
      } else if (w.pred[v].size() == 1 || w.succ[v].size() == 1) {
        bypass_node(w, v);
      } else {
        continue;
      }
      changed = true;
    }
  }
}

// Shortest cycle among live nodes not yet `used` (BFS from each node);
// empty when there is none.
std::vector<NodeId> shortest_free_cycle(const WorkGraph& w,
                                        const std::vector<char>& used) {
  std::vector<NodeId> best;
  std::vector<NodeId> parent(w.size());
  std::vector<std::size_t> depth(w.size());
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < w.size(); ++s) {
    if (!w.alive[s] || used[s]) continue;
    std::fill(parent.begin(), parent.end(), -2);
    parent[s] = -1;
    depth[s] = 0;
    queue.assign(1, s);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const NodeId u = queue[qi];
      // A cycle closed from u has depth[u] + 1 nodes.
      if (!best.empty() && depth[u] + 1 >= best.size()) break;
      if (contains(w.succ[u], s)) {
        best.clear();
        for (NodeId x = u; x != -1; x = parent[x]) best.push_back(x);
        break;
      }
      for (NodeId v : w.succ[u])
        if (!used[v] && parent[v] == -2) {
          parent[v] = u;
          depth[v] = depth[u] + 1;
          queue.push_back(v);
        }
    }
    if (best.size() == 3) break;  // 2-cycles are packed before this runs
  }
  return best;
}

// Lower bound on the FVS of a contracted graph: a greedy packing of
// vertex-disjoint cycles (2-cycles first, then shortest cycles), each of
// which needs its own node in the set.
std::size_t cycle_packing_bound(const WorkGraph& w) {
  std::vector<char> used(w.size(), 0);
  std::size_t count = 0;
  for (NodeId u = 0; u < w.size(); ++u) {
    if (!w.alive[u] || used[u]) continue;
    for (NodeId v : w.succ[u])
      if (v > u && !used[v] && contains(w.succ[v], u)) {
        used[u] = used[v] = 1;
        ++count;
        break;
      }
  }
  for (;;) {
    const std::vector<NodeId> cycle = shortest_free_cycle(w, used);
    if (cycle.empty()) return count;
    for (NodeId x : cycle) used[x] = 1;
    ++count;
  }
}

// Branch and bound over a contracted kernel.
class Brancher {
 public:
  explicit Brancher(std::vector<NodeId> all) : best_(std::move(all)) {}

  void branch(WorkGraph w, std::vector<NodeId> current) {
    if (exhausted_) return;
    contract(w, current);
    if (w.live == 0) {
      if (current.size() < best_.size()) best_ = std::move(current);
      return;
    }
    if (++nodes_ > kBranchNodeBudget) {
      exhausted_ = true;
      return;
    }
    if (current.size() + cycle_packing_bound(w) >= best_.size()) return;

    NodeId pick = -1;
    std::size_t best_score = 0;
    for (NodeId v = 0; v < w.size(); ++v) {
      if (!w.alive[v]) continue;
      const std::size_t score = w.pred[v].size() * w.succ[v].size();
      if (pick < 0 || score > best_score) {
        pick = v;
        best_score = score;
      }
    }
    {
      WorkGraph taken = w;
      std::vector<NodeId> with = current;
      with.push_back(pick);
      remove_node(taken, pick);
      branch(std::move(taken), std::move(with));
    }
    bypass_node(w, pick);
    branch(std::move(w), std::move(current));
  }

  const std::vector<NodeId>& best() const { return best_; }
  bool exhausted() const { return exhausted_; }

 private:
  std::vector<NodeId> best_;
  long nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

MfvsResult exact_mfvs(const Digraph& g, MfvsOptions opts) {
  const Digraph h = normalize(g, opts);
  WorkGraph w;
  w.succ.resize(h.num_nodes());
  w.pred.resize(h.num_nodes());
  w.alive.assign(h.num_nodes(), 1);
  w.live = h.num_nodes();
  for (NodeId u = 0; u < h.num_nodes(); ++u)
    for (NodeId v : h.successors(u)) {
      insert_sorted(w.succ[u], v);
      insert_sorted(w.pred[v], u);
    }

  MfvsResult result;
  contract(w, result.set);
  result.optimal = true;
  if (w.live > 0) {
    // Taking the whole kernel is the bound to beat.
    std::vector<NodeId> kernel;
    for (NodeId v = 0; v < w.size(); ++v)
      if (w.alive[v]) kernel.push_back(v);
    Brancher brancher(std::move(kernel));
    brancher.branch(std::move(w), {});
    result.set.insert(result.set.end(), brancher.best().begin(),
                      brancher.best().end());
    result.optimal = !brancher.exhausted();
  }
  std::sort(result.set.begin(), result.set.end());
  return result;
}

bool is_feedback_vertex_set(const Digraph& g, const std::vector<NodeId>& fvs,
                            MfvsOptions opts) {
  const Digraph h = normalize(g, opts);
  std::vector<bool> alive(h.num_nodes(), true);
  for (NodeId u : fvs) alive[u] = false;
  std::vector<NodeId> map;
  const Digraph sub = h.induced_subgraph(alive, &map);
  return is_acyclic(sub, /*ignore_self_loops=*/false);
}

}  // namespace tsyn::graph
