// Minimum feedback vertex set (MFVS) selection.
//
// Gate-level partial scan (Cheng–Agrawal [10], Lee–Reddy [22]) breaks all
// S-graph loops except self-loops by scanning a minimum set of flip-flops
// whose removal makes the S-graph acyclic. This module provides the greedy
// Lee–Reddy heuristic (the baseline row of EXP-SCANSEL) and an exact
// reduce-and-branch solver:
//
//   1. Levy–Low contraction ("A contraction algorithm for finding small
//      cycle cutsets", J. Algorithms 1988; applied to partial scan by
//      Lin & Jou, IEEE TCAD 2000), swept over the nodes in ascending id
//      order to a fixpoint: a node with a self-loop is forced into the set,
//      a node with in- or out-degree 0 is dropped, and a node with in- or
//      out-degree 1 is bypassed (its predecessors get edges to its
//      successors).
//   2. Branch and bound on the kernel that contraction leaves: take the
//      node with the largest in-degree * out-degree, or bypass it;
//      contract after every branch; prune with a lower bound from a greedy
//      packing of vertex-disjoint cycles.
//
// Every design graph in this repository contracts to a small kernel, most
// to an empty one. A fixed internal budget of branch nodes bounds the
// search; a result says whether it is proven minimum.
#pragma once

#include <vector>

#include "graph/digraph.h"

namespace tsyn::graph {

struct MfvsOptions {
  /// When set (the partial-scan convention), self-loops do not need to be
  /// broken: a node whose only cycle is u->u is not selected.
  bool ignore_self_loops = true;
};

struct MfvsResult {
  std::vector<NodeId> set;  ///< a feedback vertex set, ascending ids
  /// True when `set` is proven minimum; false only when the branch-node
  /// budget ran out, in which case `set` is the smallest one found.
  bool optimal = false;
};

/// Greedy MFVS: repeatedly remove the node with the largest
/// in-degree * out-degree product among nodes on (non-self) cycles, until the
/// graph is acyclic. This mirrors the classic Lee–Reddy heuristic.
std::vector<NodeId> greedy_mfvs(const Digraph& g, MfvsOptions opts = {});

/// Exact MFVS by contraction and branch and bound (see the file comment).
MfvsResult exact_mfvs(const Digraph& g, MfvsOptions opts = {});

/// Verifies that removing `fvs` makes g acyclic (up to self-loops when
/// opts.ignore_self_loops).
bool is_feedback_vertex_set(const Digraph& g, const std::vector<NodeId>& fvs,
                            MfvsOptions opts = {});

}  // namespace tsyn::graph
