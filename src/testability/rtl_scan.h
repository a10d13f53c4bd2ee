// RTL partial scan with transparent scan on non-register nodes
// (§4.1, [35],[37]).
//
// Gate-level partial scan may only scan existing flip-flops. At RTL both
// register nodes (replaced by scan registers) and non-register nodes (FU
// outputs, given transparent scan registers) are loop-breaking candidates;
// one transparent register on a heavily shared FU output can cut every loop
// through that FU, so significantly fewer scan elements are needed.
#pragma once

#include <vector>

#include "graph/mfvs.h"
#include "rtl/datapath.h"

namespace tsyn::testability {

struct RtlScanResult {
  std::vector<int> scan_regs;        ///< register indices made scannable
  std::vector<int> transparent_fus;  ///< FU indices given transparent scan
  int total() const {
    return static_cast<int>(scan_regs.size() + transparent_fus.size());
  }
};

/// Greedy loop-breaking over both candidate classes until only self-loops
/// remain. With apply=true, scan registers are marked in the datapath
/// (transparent FU registers have no RegisterInfo to mark; callers account
/// for them via the result).
RtlScanResult rtl_partial_scan(rtl::Datapath& dp, bool apply = true);

/// Baseline: register-only selection (the gate-level-equivalent MFVS on the
/// S-graph): the registers chosen, and whether that set is proven minimum.
graph::MfvsResult register_only_partial_scan(const rtl::Datapath& dp);

}  // namespace tsyn::testability
