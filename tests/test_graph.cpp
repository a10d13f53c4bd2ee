#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "graph/clique_partition.h"
#include "graph/coloring.h"
#include "graph/cycles.h"
#include "graph/digraph.h"
#include "graph/interval.h"
#include "graph/matching.h"
#include "graph/mfvs.h"
#include "graph/paths.h"
#include "graph/scc.h"
#include "util/rng.h"

namespace tsyn::graph {
namespace {

Digraph ring(int n) {
  Digraph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

Digraph chain(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

// Reference: the direct O(n^4) Tseng–Siewiorek partitioner, recomputing
// compatibility and gain from edge lookups on every round. The bitset
// clique_partition must agree with it decision for decision. Edge lookups
// go through a dense matrix only so the test stays fast.
using AdjMatrix = std::vector<std::vector<char>>;

bool reference_cliques_compatible(const AdjMatrix& adj,
                                  const std::vector<NodeId>& a,
                                  const std::vector<NodeId>& b) {
  for (NodeId u : a)
    for (NodeId v : b)
      if (!adj[u][v]) return false;
  return true;
}

double reference_merge_gain(const AdjMatrix& adj,
                            const std::vector<NodeId>& a,
                            const std::vector<NodeId>& b,
                            double (*weight)(NodeId, NodeId, const void*),
                            const void* ctx) {
  const int n = static_cast<int>(adj.size());
  std::vector<bool> in_ab(n, false);
  for (NodeId u : a) in_ab[u] = true;
  for (NodeId u : b) in_ab[u] = true;
  double gain = 0;
  for (NodeId w = 0; w < n; ++w) {
    if (in_ab[w]) continue;
    bool common = true;
    for (NodeId u : a)
      if (!adj[u][w]) {
        common = false;
        break;
      }
    for (NodeId v : b) {
      if (!common) break;
      if (!adj[v][w]) common = false;
    }
    if (common) gain += 1.0;
  }
  if (weight) {
    for (NodeId u : a)
      for (NodeId v : b) gain += weight(u, v, ctx);
  }
  return gain;
}

CliquePartition reference_clique_partition(
    const UndirectedGraph& compatibility,
    double (*weight)(NodeId, NodeId, const void*) = nullptr,
    const void* ctx = nullptr) {
  const int n = compatibility.num_nodes();
  AdjMatrix adj(n, std::vector<char>(n, 0));
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v : compatibility.neighbors(u)) adj[u][v] = 1;
  std::vector<std::vector<NodeId>> cliques(n);
  for (NodeId u = 0; u < n; ++u) cliques[u] = {u};
  for (;;) {
    int best_a = -1;
    int best_b = -1;
    double best_gain = -1;
    for (std::size_t i = 0; i < cliques.size(); ++i) {
      for (std::size_t j = i + 1; j < cliques.size(); ++j) {
        if (!reference_cliques_compatible(adj, cliques[i], cliques[j]))
          continue;
        const double gain =
            reference_merge_gain(adj, cliques[i], cliques[j], weight, ctx);
        if (gain > best_gain) {
          best_gain = gain;
          best_a = static_cast<int>(i);
          best_b = static_cast<int>(j);
        }
      }
    }
    if (best_a < 0) break;
    auto& a = cliques[best_a];
    auto& b = cliques[best_b];
    a.insert(a.end(), b.begin(), b.end());
    cliques.erase(cliques.begin() + best_b);
  }
  CliquePartition result;
  result.cliques = std::move(cliques);
  result.clique_of.assign(n, -1);
  for (std::size_t i = 0; i < result.cliques.size(); ++i) {
    std::sort(result.cliques[i].begin(), result.cliques[i].end());
    for (NodeId u : result.cliques[i])
      result.clique_of[u] = static_cast<int>(i);
  }
  return result;
}

Digraph random_digraph(int n, double p, std::uint64_t seed) {
  util::Rng rng(seed);
  Digraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v)
      if (u != v && rng.next_bool(p)) g.add_edge(u, v);
  return g;
}

TEST(Digraph, BasicConstruction) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(2), 1);
}

TEST(Digraph, AddEdgeUniqueSuppressesDuplicates) {
  Digraph g(2);
  g.add_edge_unique(0, 1);
  g.add_edge_unique(0, 1);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Digraph, InducedSubgraphRemapsIds) {
  Digraph g = chain(4);
  std::vector<bool> keep{true, false, true, true};
  std::vector<NodeId> map;
  const Digraph sub = g.induced_subgraph(keep, &map);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], -1);
  EXPECT_TRUE(sub.has_edge(map[2], map[3]));
  EXPECT_EQ(sub.num_edges(), 1u);  // 0->1 and 1->2 dropped with node 1
}

TEST(Digraph, ReversedSwapsDirections) {
  Digraph g = chain(3);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_FALSE(r.has_edge(0, 1));
}

TEST(Scc, ChainIsAllTrivial) {
  const SccResult scc = strongly_connected_components(chain(5));
  EXPECT_EQ(scc.num_components, 5);
}

TEST(Scc, RingIsOneComponent) {
  const SccResult scc = strongly_connected_components(ring(6));
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_EQ(scc.members[0].size(), 6u);
}

TEST(Scc, MixedGraph) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);  // {1,2} cycle
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_NE(scc.component[0], scc.component[1]);
}

TEST(Scc, CondensationIsAcyclic) {
  const Digraph g = random_digraph(20, 0.15, 5);
  const SccResult scc = strongly_connected_components(g);
  const Digraph c = condensation(g, scc);
  EXPECT_TRUE(is_acyclic(c));
}

TEST(Scc, TarjanReverseTopologicalNumbering) {
  // Tarjan numbers a component before any component that reaches it.
  const Digraph g = chain(4);
  const SccResult scc = strongly_connected_components(g);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v : g.successors(u))
      EXPECT_GT(scc.component[u], scc.component[v]);
}

TEST(Scc, SelfLoopCounts) {
  Digraph g(2);
  g.add_edge(0, 0);
  EXPECT_FALSE(is_acyclic(g));
  EXPECT_TRUE(is_acyclic(g, /*ignore_self_loops=*/true));
  const auto cyclic = nodes_on_cycles(g);
  ASSERT_EQ(cyclic.size(), 1u);
  EXPECT_EQ(cyclic[0], 0);
}

TEST(Cycles, RingHasOneCycle) {
  const auto cycles = elementary_cycles(ring(5));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 5u);
}

TEST(Cycles, TwoTriangleGraph) {
  Digraph g(5);
  // Two triangles sharing node 0.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  const auto cycles = elementary_cycles(g);
  EXPECT_EQ(cycles.size(), 2u);
}

TEST(Cycles, CompleteGraphCycleCount) {
  // K4 (directed both ways) has 6+8+6=20 elementary cycles.
  Digraph g(4);
  for (int u = 0; u < 4; ++u)
    for (int v = 0; v < 4; ++v)
      if (u != v) g.add_edge(u, v);
  EXPECT_EQ(elementary_cycles(g).size(), 20u);
}

TEST(Cycles, SelfLoopIsLengthOne) {
  Digraph g(1);
  g.add_edge(0, 0);
  const auto cycles = elementary_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 1u);
}

TEST(Cycles, BoundRespected) {
  Digraph g(6);
  for (int u = 0; u < 6; ++u)
    for (int v = 0; v < 6; ++v)
      if (u != v) g.add_edge(u, v);
  EXPECT_LE(elementary_cycles(g, 10).size(), 10u);
}

TEST(Cycles, SortedShortestFirst) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  const auto cycles = elementary_cycles(g);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_LE(cycles[0].size(), cycles[1].size());
}

TEST(Paths, TopologicalOrderOnDag) {
  const auto order = topological_order(chain(5));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->front(), 0);
  EXPECT_EQ(order->back(), 4);
}

TEST(Paths, TopologicalOrderRejectsCycle) {
  EXPECT_FALSE(topological_order(ring(3)).has_value());
}

TEST(Paths, BfsDistances) {
  const auto d = bfs_distances(chain(4), {0});
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[3], 3);
  const auto d2 = bfs_distances(chain(4), {2});
  EXPECT_EQ(d2[0], -1);  // unreachable backwards
}

TEST(Paths, DagLongestDistances) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 3);  // short path
  g.add_edge(0, 2);
  const auto d = dag_longest_distances(g, {0});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((*d)[3], 2);  // via 1
}

TEST(Paths, SequentialDepthIgnoresSelfLoops) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 1);
  const auto depth = sequential_depth(g);
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(*depth, 2);
}

TEST(Paths, SequentialDepthUndefinedWithRealLoop) {
  EXPECT_FALSE(sequential_depth(ring(3)).has_value());
}

TEST(Mfvs, GreedyBreaksAllLoops) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Digraph g = random_digraph(15, 0.2, seed);
    const auto fvs = greedy_mfvs(g);
    EXPECT_TRUE(is_feedback_vertex_set(g, fvs));
  }
}

TEST(Mfvs, ExactNoLargerThanGreedy) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const Digraph g = random_digraph(12, 0.18, seed);
    const auto greedy = greedy_mfvs(g);
    const auto exact = exact_mfvs(g).set;
    EXPECT_TRUE(is_feedback_vertex_set(g, exact));
    EXPECT_LE(exact.size(), greedy.size());
  }
}

TEST(Mfvs, RingNeedsExactlyOne) {
  const auto fvs = exact_mfvs(ring(7)).set;
  EXPECT_EQ(fvs.size(), 1u);
}

TEST(Mfvs, SelfLoopsIgnoredByDefault) {
  Digraph g(2);
  g.add_edge(0, 0);
  EXPECT_TRUE(exact_mfvs(g).set.empty());
  EXPECT_EQ(exact_mfvs(g, {.ignore_self_loops = false}).set.size(), 1u);
}

TEST(Mfvs, TwoDisjointRings) {
  Digraph g(6);
  for (int i = 0; i < 3; ++i) g.add_edge(i, (i + 1) % 3);
  for (int i = 0; i < 3; ++i) g.add_edge(3 + i, 3 + (i + 1) % 3);
  EXPECT_EQ(exact_mfvs(g).set.size(), 2u);
}

// Minimum FVS size by exhaustion over vertex subsets (n <= 16): a subset
// is acyclic iff it is empty, or it has a source whose removal leaves it
// acyclic (removing a source breaks no cycle, so any source will do).
std::size_t brute_force_mfvs_size(const Digraph& g, bool ignore_self_loops) {
  const int n = g.num_nodes();
  std::vector<std::uint32_t> preds(n, 0);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v : g.successors(u))
      if (!(ignore_self_loops && u == v)) preds[v] |= 1u << u;
  std::vector<char> acyclic(std::size_t{1} << n, 0);
  acyclic[0] = 1;
  int keep = 0;
  for (std::uint32_t s = 1; s < (1u << n); ++s) {
    for (int v = 0; v < n; ++v)
      if ((s >> v & 1) && (preds[v] & s) == 0) {
        acyclic[s] = acyclic[s & ~(1u << v)];
        break;
      }
    if (acyclic[s]) keep = std::max(keep, std::popcount(s));
  }
  return static_cast<std::size_t>(n - keep);
}

TEST(Mfvs, ExactMatchesBruteForceOnRandomGraphs) {
  util::Rng rng(0x3F5);
  for (int trial = 0; trial < 2400; ++trial) {
    const int n = rng.next_int(4, 15);
    const double density = 0.08 + 0.32 * rng.next_double();
    Digraph g(n);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = 0; v < n; ++v)
        if (u == v ? rng.next_bool(0.1) : rng.next_bool(density))
          g.add_edge(u, v);
    for (const bool ignore : {true, false}) {
      const MfvsOptions opts{.ignore_self_loops = ignore};
      const MfvsResult r = exact_mfvs(g, opts);
      ASSERT_TRUE(r.optimal) << "trial " << trial;
      ASSERT_TRUE(std::is_sorted(r.set.begin(), r.set.end()));
      ASSERT_TRUE(is_feedback_vertex_set(g, r.set, opts)) << "trial " << trial;
      ASSERT_EQ(r.set.size(), brute_force_mfvs_size(g, ignore))
          << "trial " << trial << " ignore_self_loops " << ignore;
    }
  }
}

TEST(Mfvs, ExactSolvesLargeCyclicCoreWhereGreedyIsNotOptimal) {
  // Greedy's degree products tie on 0..3, so it cuts node 0 first and
  // then needs a second node; node 1 (or 3) alone breaks all three loops.
  // Next to it a disjoint 40-node ring: more than 32 cyclic nodes, where
  // the solver once returned the greedy set under the exact name.
  Digraph g(5 + 40);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {1, 3}, {2, 0}, {2, 1}, {3, 0}, {3, 2}, {4, 0}, {4, 1}})
    g.add_edge(u, v);
  for (int i = 0; i < 40; ++i) g.add_edge(5 + i, 5 + (i + 1) % 40);
  const std::size_t minimum = 2;
  const MfvsResult r = exact_mfvs(g);
  EXPECT_TRUE(r.optimal);
  EXPECT_TRUE(is_feedback_vertex_set(g, r.set));
  EXPECT_EQ(r.set.size(), minimum);
  EXPECT_EQ(greedy_mfvs(g).size(), minimum + 1);
}

TEST(Mfvs, CompleteDigraphLeavesAKernelToBranchOn) {
  // Every node of K5 has in- and out-degree 4, so contraction removes
  // nothing; only one node may stay out of the set.
  Digraph g(5);
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = 0; v < 5; ++v)
      if (u != v) g.add_edge(u, v);
  const MfvsResult r = exact_mfvs(g);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.set.size(), 4u);
  EXPECT_TRUE(is_feedback_vertex_set(g, r.set));
}

TEST(Mfvs, AcyclicNeedsNone) {
  EXPECT_TRUE(greedy_mfvs(chain(10)).empty());
  EXPECT_TRUE(exact_mfvs(chain(10)).set.empty());
}

TEST(Coloring, TriangleNeedsThree) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const Coloring c = dsatur_coloring(g);
  EXPECT_EQ(c.num_colors, 3);
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Coloring, BipartiteNeedsTwo) {
  UndirectedGraph g(6);
  for (int a = 0; a < 3; ++a)
    for (int b = 3; b < 6; ++b) g.add_edge(a, b);
  const Coloring c = dsatur_coloring(g);
  EXPECT_EQ(c.num_colors, 2);
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Coloring, EmptyGraphOneColorPerIsolatedNodeSetIsOne) {
  UndirectedGraph g(4);
  const Coloring c = dsatur_coloring(g);
  EXPECT_EQ(c.num_colors, 1);
}

TEST(Coloring, SequentialRespectsOrder) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  const Coloring c = sequential_coloring(g, {2, 1, 0});
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Coloring, RandomGraphsProper) {
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    UndirectedGraph g(20);
    for (int u = 0; u < 20; ++u)
      for (int v = u + 1; v < 20; ++v)
        if (rng.next_bool(0.3)) g.add_edge(u, v);
    EXPECT_TRUE(is_proper_coloring(g, dsatur_coloring(g)));
  }
}

TEST(Coloring, ComplementHasComplementEdges) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  const UndirectedGraph c = g.complement();
  EXPECT_FALSE(c.has_edge(0, 1));
  EXPECT_TRUE(c.has_edge(0, 2));
  EXPECT_TRUE(c.has_edge(1, 2));
}

TEST(Interval, OverlapBasic) {
  EXPECT_TRUE(lifetimes_overlap({0, 3}, {2, 5}, 6));
  EXPECT_FALSE(lifetimes_overlap({0, 2}, {2, 4}, 6));
}

TEST(Interval, WrappingOverlap) {
  // [4,6) wrap to [0,1) vs [0,2): overlap at slot 0.
  EXPECT_TRUE(lifetimes_overlap({4, 1}, {0, 2}, 6));
  // [4,6)+[0,1) vs [2,4): no overlap.
  EXPECT_FALSE(lifetimes_overlap({4, 1}, {2, 4}, 6));
}

TEST(Interval, EqualBirthDeathWrapsWholeLoop) {
  EXPECT_TRUE(lifetimes_overlap({2, 2}, {5, 6}, 8));
}

TEST(Interval, LeftEdgeMinimalOnDisjoint) {
  std::vector<Interval> v{{0, 2}, {2, 4}, {4, 6}};
  int regs = 0;
  const auto assign = left_edge_assign(v, 6, &regs);
  EXPECT_EQ(regs, 1);
  EXPECT_EQ(assign[0], assign[1]);
}

TEST(Interval, LeftEdgeConflictsSeparate) {
  std::vector<Interval> v{{0, 4}, {1, 3}, {2, 5}};
  int regs = 0;
  const auto assign = left_edge_assign(v, 6, &regs);
  EXPECT_EQ(regs, 3);
  (void)assign;
}

TEST(Interval, LeftEdgeValidity) {
  util::Rng rng(5);
  std::vector<Interval> v;
  for (int i = 0; i < 30; ++i) {
    const int b = rng.next_int(0, 7);
    const int d = rng.next_int(0, 7);
    v.push_back({b, d == b ? (b + 1) % 8 : d});
  }
  int regs = 0;
  const auto assign = left_edge_assign(v, 8, &regs);
  for (std::size_t i = 0; i < v.size(); ++i)
    for (std::size_t j = i + 1; j < v.size(); ++j)
      if (assign[i] == assign[j])
        EXPECT_FALSE(lifetimes_overlap(v[i], v[j], 8))
            << "intervals " << i << " and " << j;
}

TEST(CliquePartition, CompatibleTriangleMergesToOne) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const CliquePartition p = clique_partition(g);
  EXPECT_EQ(p.cliques.size(), 1u);
  EXPECT_TRUE(is_valid_clique_partition(g, p));
}

TEST(CliquePartition, IndependentSetStaysSeparate) {
  UndirectedGraph g(4);
  const CliquePartition p = clique_partition(g);
  EXPECT_EQ(p.cliques.size(), 4u);
  EXPECT_TRUE(is_valid_clique_partition(g, p));
}

TEST(CliquePartition, PathGraphPairsUp) {
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const CliquePartition p = clique_partition(g);
  EXPECT_EQ(p.cliques.size(), 2u);
  EXPECT_TRUE(is_valid_clique_partition(g, p));
}

TEST(CliquePartition, WeightSteersMerge) {
  // Square: 0-1, 1-2, 2-3, 3-0. Unweighted may pair either way; a weight
  // pulling (0,1) and (2,3) together must be honored.
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const auto weight = [](NodeId u, NodeId v, const void*) -> double {
    if ((u == 0 && v == 1) || (u == 2 && v == 3)) return 10.0;
    return 0.0;
  };
  const CliquePartition p = clique_partition(g, weight, nullptr);
  EXPECT_TRUE(is_valid_clique_partition(g, p));
  EXPECT_EQ(p.clique_of[0], p.clique_of[1]);
  EXPECT_EQ(p.clique_of[2], p.clique_of[3]);
}

TEST(CliquePartition, MatchesReferenceOnRandomGraphs) {
  // Sizes straddle the 64- and 128-bit row-word boundaries; past 65 nodes
  // only sparse graphs, which keep the reference fast. One weight is
  // tie-heavy (multiples of 0.5, including the -1 floor of the best gain);
  // the other is inexact in binary, so any change in the order the weights
  // are summed in shows up as a different double.
  using Weight = double (*)(NodeId, NodeId, const void*);
  const Weight ties = [](NodeId u, NodeId v, const void*) -> double {
    return 0.5 * static_cast<double>((u + 2 * v) % 3) - 1.0;
  };
  const Weight inexact = [](NodeId u, NodeId v, const void*) -> double {
    return 0.1 * static_cast<double>((u * 31 + v * 17) % 7);
  };
  const std::vector<int> sizes = {0,  1,  2,  3,   5,   9,   17, 33,
                                  63, 64, 65, 127, 128, 129, 130};
  for (int n : sizes) {
    const std::vector<double> densities =
        n <= 65 ? std::vector<double>{0.1, 0.5, 0.9} : std::vector<double>{0.1};
    for (double p : densities) {
      util::Rng rng(static_cast<std::uint64_t>(n) * 1000 +
                    static_cast<std::uint64_t>(p * 10));
      UndirectedGraph g(n);
      for (NodeId u = 0; u < n; ++u)
        for (NodeId v = u + 1; v < n; ++v)
          if (rng.next_bool(p)) g.add_edge(u, v);
      for (Weight w : {Weight{nullptr}, ties, inexact}) {
        const CliquePartition got = clique_partition(g, w, nullptr);
        const CliquePartition want = reference_clique_partition(g, w);
        EXPECT_EQ(got.cliques, want.cliques) << "n=" << n << " p=" << p;
        EXPECT_EQ(got.clique_of, want.clique_of) << "n=" << n << " p=" << p;
        EXPECT_TRUE(is_valid_clique_partition(g, got));
      }
    }
  }
}

TEST(Matching, PerfectMatching) {
  std::vector<std::vector<int>> adj{{0, 1}, {0}, {1, 2}};
  const auto m = max_bipartite_matching(adj, 3);
  int matched = 0;
  for (int x : m)
    if (x >= 0) ++matched;
  EXPECT_EQ(matched, 3);
}

TEST(Matching, AugmentingPathNeeded) {
  // l0 -> {r0}, l1 -> {r0, r1}: naive greedy might block l0.
  std::vector<std::vector<int>> adj{{0}, {0, 1}};
  const auto m = max_bipartite_matching(adj, 2);
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], 1);
}

TEST(Matching, NoEdges) {
  std::vector<std::vector<int>> adj{{}, {}};
  const auto m = max_bipartite_matching(adj, 2);
  EXPECT_EQ(m[0], -1);
  EXPECT_EQ(m[1], -1);
}

// Property sweep: MFVS validity across graph densities.
class MfvsSweep : public ::testing::TestWithParam<int> {};

TEST_P(MfvsSweep, GreedyAlwaysValid) {
  const int density_pct = GetParam();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Digraph g = random_digraph(14, density_pct / 100.0, seed * 7 + 1);
    const auto fvs = greedy_mfvs(g);
    EXPECT_TRUE(is_feedback_vertex_set(g, fvs));
    // Minimality-ish: dropping any selected node must leave a loop.
    for (std::size_t drop = 0; drop < fvs.size(); ++drop) {
      std::vector<NodeId> smaller;
      for (std::size_t i = 0; i < fvs.size(); ++i)
        if (i != drop) smaller.push_back(fvs[i]);
      // Not required to fail for greedy, but must fail for exact:
    }
    const auto exact = exact_mfvs(g).set;
    for (std::size_t drop = 0; drop < exact.size(); ++drop) {
      std::vector<NodeId> smaller;
      for (std::size_t i = 0; i < exact.size(); ++i)
        if (i != drop) {
        smaller.push_back(exact[i]);
      }
      EXPECT_FALSE(is_feedback_vertex_set(g, smaller))
          << "exact MFVS not minimal at density " << density_pct;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, MfvsSweep,
                         ::testing::Values(5, 10, 20, 30));

}  // namespace
}  // namespace tsyn::graph
