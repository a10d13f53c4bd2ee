// SCOAP testability measures (Goldstein's controllability/observability).
//
// CC0/CC1(n): number of line assignments needed to force node n to 0/1;
// CO(n): assignments to propagate n to a primary output. The run report's
// effort attribution (observe/scoap_attr) ranks them against PODEM's
// measured effort.
#pragma once

#include <vector>

#include "gatelevel/netlist.h"

namespace tsyn::gl {

struct Scoap {
  std::vector<int> cc0;  ///< per node; saturating arithmetic
  std::vector<int> cc1;
  std::vector<int> co;   ///< INT_MAX/2 when unobservable
};

/// Computes SCOAP over a combinational netlist (DFF-free).
Scoap compute_scoap(const Netlist& n);

}  // namespace tsyn::gl
