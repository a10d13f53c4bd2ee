// Elementary cycle enumeration (Johnson's algorithm).
//
// The loop-cutting effectiveness measure of Potkonjak/Dey/Roy [33] and the
// boundary-variable method of Lee/Jha/Wolf [24] both reason about the set of
// elementary loops in the CDFG / S-graph, which this module enumerates.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace tsyn::graph {

/// One elementary cycle as a node sequence; the closing edge
/// back to front() is implicit. A self-loop is a single-element cycle.
using Cycle = std::vector<NodeId>;

/// Enumerates elementary cycles with Johnson's algorithm.
///
/// `max_cycles` bounds the enumeration (gate-level S-graphs can have an
/// exponential number of loops); enumeration stops once the bound is hit.
/// Returns cycles sorted by length, shortest first.
std::vector<Cycle> elementary_cycles(const Digraph& g,
                                     std::size_t max_cycles = 100000);

}  // namespace tsyn::graph
