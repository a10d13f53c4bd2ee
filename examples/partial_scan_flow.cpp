// Partial-scan flow (§3 of the survey end to end): select scan variables
// at the behavioral level, synthesize with loop avoidance, apply scan,
// and confirm at the gate level that full-scan-style ATPG now closes.
//
//   ./build/examples/partial_scan_flow
#include <cstdio>

#include "cdfg/benchmarks.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "hls/datapath_builder.h"
#include "rtl/area.h"
#include "graph/mfvs.h"
#include "rtl/sgraph.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"

int main() {
  using namespace tsyn;
  const cdfg::Cdfg g = cdfg::ewf();
  std::printf("behavior: %s (%d ops, %zu loop-carried states)\n",
              g.name().c_str(), g.num_ops(), g.states().size());

  // 1. Break CDFG loops with sharing-aware scan variables ([33]).
  const auto scan_vars = testability::select_scan_vars_loopcut(g);
  std::printf("scan variables selected: %zu\n", scan_vars.size());

  // 2. Loop-avoiding scheduling + assignment, reusing the scan registers.
  testability::LoopAvoidOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 1}};
  opts.scan_vars = scan_vars;
  const testability::LoopAvoidResult r =
      testability::loop_avoiding_synthesis(g, opts);
  hls::RtlDesign design = hls::build_rtl(g, r.schedule, r.binding);

  // 3. Apply the behavioral scan set, then complete at RTL: hardware
  //    sharing can leave assignment loops the CDFG-level selection cannot
  //    see (the hybrid flow the survey's results imply).
  const rtl::LoopStats before = rtl::loop_stats(design.datapath, false);
  int scan_regs = testability::apply_scan(
      g, r.binding, scan_vars, design.datapath);
  for (int reg : graph::exact_mfvs(
                     rtl::build_sgraph(design.datapath, /*exclude_scan=*/true),
                     {.ignore_self_loops = true})
                     .set) {
    design.datapath.regs[reg].test_kind = rtl::TestRegKind::kScan;
    ++scan_regs;
  }
  const rtl::LoopStats after = rtl::loop_stats(design.datapath, true);
  std::printf(
      "scan registers: %d of %d (%.1f%% area overhead)\n"
      "registers on breakable loops: %d CDFG (state) + %d assignment "
      "before scan -> %d + %d in scan mode\n",
      scan_regs, design.datapath.num_regs(),
      100.0 * rtl::test_area_overhead(design.datapath),
      before.cdfg_loops, before.assignment_loops, after.cdfg_loops,
      after.assignment_loops);
  std::printf("sequential depth in test mode: %d\n",
              rtl::datapath_sequential_depth(design.datapath, true));

  // 4. Gate level: with loops broken, scan-mode ATPG closes the fault list.
  rtl::Datapath full_scan = design.datapath;
  for (auto& reg : full_scan.regs)
    reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = 4;
  const gl::ExpandedDesign expanded = gl::expand_datapath(full_scan, x);
  const auto faults = gl::enumerate_faults(expanded.netlist);
  const gl::AtpgCampaign campaign =
      gl::run_combinational_atpg(expanded.netlist, faults);
  std::printf(
      "gate level (w=4): %d gates, %zu faults, coverage %.2f%%, "
      "efficiency %.2f%%\n",
      expanded.netlist.gate_count(), faults.size(),
      100 * campaign.fault_coverage, 100 * campaign.fault_efficiency);
  return 0;
}
