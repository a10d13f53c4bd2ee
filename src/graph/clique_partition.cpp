#include "graph/clique_partition.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace tsyn::graph {

namespace {

using Row = std::vector<std::uint64_t>;

void set_bit(Row& row, NodeId u) {
  row[u / 64] |= std::uint64_t{1} << (u % 64);
}

// A clique under construction. `common` is the AND of its members'
// adjacency rows: the nodes compatible with every member. It never holds a
// member, since the graph has no self-edges.
struct Clique {
  std::vector<NodeId> nodes;
  Row members;
  Row common;
};

}  // namespace

CliquePartition clique_partition(const UndirectedGraph& compatibility,
                                 double (*weight)(NodeId, NodeId,
                                                  const void*),
                                 const void* ctx) {
  const int n = compatibility.num_nodes();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<Clique> cliques(n);
  for (NodeId u = 0; u < n; ++u) {
    Clique& c = cliques[u];
    c.nodes = {u};
    c.members.assign(words, 0);
    c.common.assign(words, 0);
    set_bit(c.members, u);
    for (NodeId v : compatibility.neighbors(u)) set_bit(c.common, v);
  }

  for (;;) {
    int best_a = -1;
    int best_b = -1;
    double best_gain = -1;
    for (std::size_t i = 0; i < cliques.size(); ++i) {
      const Clique& a = cliques[i];
      for (std::size_t j = i + 1; j < cliques.size(); ++j) {
        const Clique& b = cliques[j];
        // Mergeable iff every member of b is compatible with all of a.
        // The gain counts the nodes compatible with all of a and all of b.
        bool compatible = true;
        int common = 0;
        for (std::size_t w = 0; w < words; ++w) {
          if (b.members[w] & ~a.common[w]) {
            compatible = false;
            break;
          }
          common += std::popcount(a.common[w] & b.common[w]);
        }
        if (!compatible) continue;
        double gain = common;
        if (weight) {
          for (NodeId u : a.nodes)
            for (NodeId v : b.nodes) gain += weight(u, v, ctx);
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_a = static_cast<int>(i);
          best_b = static_cast<int>(j);
        }
      }
    }
    if (best_a < 0) break;
    Clique& a = cliques[best_a];
    Clique& b = cliques[best_b];
    a.nodes.insert(a.nodes.end(), b.nodes.begin(), b.nodes.end());
    for (std::size_t w = 0; w < words; ++w) {
      a.members[w] |= b.members[w];
      a.common[w] &= b.common[w];
    }
    cliques.erase(cliques.begin() + best_b);
  }

  CliquePartition result;
  result.clique_of.assign(n, -1);
  for (Clique& c : cliques) {
    std::sort(c.nodes.begin(), c.nodes.end());
    for (NodeId u : c.nodes)
      result.clique_of[u] = static_cast<int>(result.cliques.size());
    result.cliques.push_back(std::move(c.nodes));
  }
  return result;
}

bool is_valid_clique_partition(const UndirectedGraph& compatibility,
                               const CliquePartition& p) {
  for (const auto& clique : p.cliques)
    for (std::size_t i = 0; i < clique.size(); ++i)
      for (std::size_t j = i + 1; j < clique.size(); ++j)
        if (!compatibility.has_edge(clique[i], clique[j])) return false;
  // Every node covered exactly once.
  std::vector<int> seen(p.clique_of.size(), 0);
  for (const auto& clique : p.cliques)
    for (NodeId u : clique) ++seen[u];
  return std::all_of(seen.begin(), seen.end(),
                     [](int s) { return s == 1; });
}

}  // namespace tsyn::graph
