// S-graph extraction and loop taxonomy (§3.1, §3.3).
//
// The S-graph has one node per register and an edge u -> v when a strictly
// combinational path runs from register u to register v. Sequential ATPG
// effort grows empirically ~exponentially with the length of S-graph cycles
// and ~linearly with sequential depth, so every testability-driven synthesis
// technique in the survey reasons about this graph.
//
// `loop_stats` gives exact per-class register counts in linear time;
// `analyze_loops` lists the loops themselves, up to a cap, for callers that
// need their members.
#pragma once

#include <string>
#include <vector>

#include "graph/cycles.h"
#include "graph/digraph.h"
#include "rtl/datapath.h"

namespace tsyn::rtl {

/// Builds the register-level S-graph of a datapath.
/// Scan registers (`exclude_scan`) are removed from the graph: in test mode
/// they are pseudo primary inputs/outputs and no longer propagate state.
graph::Digraph build_sgraph(const Datapath& dp, bool exclude_scan = false);

/// Classification of one S-graph loop, following the taxonomy of §3.3:
/// self-loops are tolerable; CDFG loops stem from loop-carried behavior;
/// assignment loops are artifacts of hardware sharing.
enum class LoopClass { kSelfLoop, kCdfgLoop, kAssignmentLoop };

std::string to_string(LoopClass c);

struct DatapathLoop {
  graph::Cycle registers;  ///< register indices along the loop
  LoopClass kind = LoopClass::kSelfLoop;
};

/// Enumerates and classifies S-graph loops (after scan exclusion when
/// requested). A loop touching any state-holding register is a CDFG loop;
/// a length-1 loop is a self-loop; everything else is an assignment loop.
/// The enumeration is capped: it stops after `max_loops` loops, so a result
/// of exactly `max_loops` loops is a lower bound, not a count, and need not
/// even contain every self-loop. Use `loop_stats` for exact figures.
std::vector<DatapathLoop> analyze_loops(const Datapath& dp,
                                        bool exclude_scan = false,
                                        std::size_t max_loops = 10000);

/// Exact loop figures of the taxonomy, one per class. Each counts
/// registers, not loops: the number of loops can grow exponentially with
/// the register count, the number of registers on them cannot.
struct LoopStats {
  /// Registers with an S-graph self-edge.
  int self_loops = 0;
  /// State-holding registers on a loop of two or more registers.
  int cdfg_loops = 0;
  /// Registers on a loop of two or more registers none of which holds
  /// state, i.e. on an assignment loop.
  int assignment_loops = 0;
  /// Nonzero exactly when a loop other than a self-loop exists, i.e. one
  /// that sequential ATPG cares about.
  int breakable() const { return cdfg_loops + assignment_loops; }
};

/// Computes `LoopStats` from strongly connected components of the S-graph
/// and of its stateless-register subgraph, in time linear in its size.
LoopStats loop_stats(const Datapath& dp, bool exclude_scan = false);

/// Sequential depth of the datapath's S-graph ignoring self-loops;
/// -1 when non-self loops remain (depth undefined until they are broken).
int datapath_sequential_depth(const Datapath& dp, bool exclude_scan = false);

/// Number of registers directly connected to primary I/O: input registers
/// (loadable from a PI) plus output registers (observed at a PO). The
/// register C/O measure of §3.2.
int io_register_count(const Datapath& dp);

}  // namespace tsyn::rtl
