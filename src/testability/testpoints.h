// Non-scan DFT with k-level test points (§4.2, [15]).
//
// Dey & Potkonjak observe that a data-path loop need not contain a directly
// (k=0) accessible register: it suffices that every loop is k-level
// controllable and observable — some register in it can be set to an
// arbitrary value within k cycles from direct controls, and some register
// read within k cycles at direct observations. Test points (implemented
// with register files and constants rather than scan) are inserted only
// until that holds, which needs far fewer insertions than per-loop scan.
#pragma once

#include <vector>

#include "rtl/datapath.h"

namespace tsyn::testability {

/// Register-level distances: cycles to control / observe each register.
struct CoDistances {
  std::vector<int> control;  ///< -1 = uncontrollable
  std::vector<int> observe;  ///< -1 = unobservable
};

/// Control distance = BFS from input registers and control points along the
/// S-graph; observe distance = BFS to output registers and observe points.
CoDistances co_distances(const rtl::Datapath& dp,
                         const std::vector<int>& control_points,
                         const std::vector<int>& observe_points);

/// Number of registers on an S-graph loop of two or more registers that
/// is not k-level controllable or not k-level observable: registers
/// farther than k from control (or from observation) that lie in a
/// strongly connected component of >= 2 such registers. Zero exactly when
/// every such loop is k-level controllable and observable. Linear in the
/// S-graph's size; no loop is enumerated.
int klevel_violations(const rtl::Datapath& dp, int k,
                      const std::vector<int>& control_points = {},
                      const std::vector<int>& observe_points = {});

struct TestPointResult {
  std::vector<int> control_point_regs;
  std::vector<int> observe_point_regs;
  int total() const {
    return static_cast<int>(control_point_regs.size() +
                            observe_point_regs.size());
  }
};

/// Greedy insertion until every loop is k-level C/O: each round adds the
/// one control or observe point that lowers klevel_violations most. With
/// apply=true the datapath is mutated: control points gain a primary-input
/// driver, observe points a primary output, so gate-level coverage can be
/// measured.
TestPointResult insert_klevel_test_points(rtl::Datapath& dp, int k,
                                          bool apply = true);

}  // namespace tsyn::testability
