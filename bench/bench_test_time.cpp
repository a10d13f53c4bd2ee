// EXP-TESTTIME — test application time: where partial scan pays off.
//
// Every scan pattern costs chain-length shift cycles, so tester time is
// patterns x (chain + 1). The pattern count is dominated by the
// combinational logic (measured once, on the full-scan design); the chain
// length is what the scan configuration controls. High-level partial scan
// keeps the chain short and therefore the test time low — the practical
// payoff behind §3's scan-register minimization. The same designs are also
// graded for the §7b methodologies (transition and IDDQ).
#include "common.h"

#include "gatelevel/atpg_comb.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/delay_iddq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "graph/mfvs.h"
#include "rtl/scan_chain.h"
#include "rtl/sgraph.h"
#include "testability/scan_select.h"

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-TESTTIME",
      "Tester time = patterns x (scan chain + 1). Shorter partial-scan "
      "chains\n(§3 selection) cut application time at the same pattern "
      "count; transition and\nIDDQ gradings (§7b) of the full-scan design "
      "included.");

  util::Table table({"benchmark", "scan config", "chain bits",
                     "ATPG patterns", "stuck-at cov", "tester cycles",
                     "time vs full"});
  util::Table grading({"benchmark", "stuck-at cov", "transition cov",
                       "IDDQ cov"});
  std::vector<cdfg::Cdfg> graphs;
  graphs.push_back(cdfg::diffeq());
  graphs.push_back(cdfg::iir_biquad());
  graphs.push_back(cdfg::ar_lattice(4));
  graphs.push_back(cdfg::ewf());
  for (const cdfg::Cdfg& g : graphs) {
    hls::Synthesis syn = bench::synthesize_standard(g);

    // Pattern count and coverage, measured once on the full-scan design.
    rtl::Datapath full = syn.rtl.datapath;
    for (auto& reg : full.regs) reg.test_kind = rtl::TestRegKind::kScan;
    gl::ExpandOptions x;
    x.width_override = 4;
    const gl::ExpandedDesign e = gl::expand_datapath(full, x);
    const auto faults = gl::enumerate_faults(e.netlist);
    const gl::AtpgCampaign campaign =
        gl::run_combinational_atpg(e.netlist, faults);
    const int patterns = static_cast<int>(campaign.tests.size());

    const rtl::ScanChainPlan full_chain = rtl::build_scan_chain(full);
    const long full_cycles = full_chain.test_cycles(patterns);
    table.add_row({g.name(), "full scan",
                   std::to_string(full_chain.chain_bits),
                   std::to_string(patterns),
                   util::fmt_pct(campaign.fault_coverage),
                   std::to_string(full_cycles), "1.00x"});

    // Partial scan: [33] selection + RTL completion of remaining loops.
    rtl::Datapath partial = syn.rtl.datapath;
    const auto vars = testability::select_scan_vars_loopcut(g);
    testability::apply_scan(g, syn.binding, vars, partial);
    for (int r : graph::exact_mfvs(
                     rtl::build_sgraph(partial, /*exclude_scan=*/true),
                     {.ignore_self_loops = true})
                     .set)
      partial.regs[r].test_kind = rtl::TestRegKind::kScan;
    const rtl::ScanChainPlan part_chain = rtl::build_scan_chain(partial);
    const long part_cycles = part_chain.test_cycles(patterns);
    table.add_row(
        {g.name(), "partial scan [33]",
         std::to_string(part_chain.chain_bits), std::to_string(patterns),
         "see EXP-SCANSEL", std::to_string(part_cycles),
         util::fmt(static_cast<double>(part_cycles) / full_cycles, 2) + "x"});

    // §7b gradings on the full-scan design under a fixed random budget.
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(e.netlist.primary_inputs().size()), 4, 11);
    const auto tf = gl::enumerate_transition_faults(e.netlist);
    grading.add_row(
        {g.name(), util::fmt_pct(gl::fault_coverage(e.netlist, blocks, faults)),
         util::fmt_pct(gl::transition_fault_coverage(e.netlist, blocks, tf)),
         util::fmt_pct(gl::iddq_fault_coverage(e.netlist, blocks, faults))});
  }
  bench::print_table(table);
  std::printf("Random-budget grading (256 patterns, full-scan designs):\n");
  bench::print_table(grading);
  return 0;
}
