// EXP-SCANSEL — scan selection at the behavioral level vs the gate-level
// MFVS transplant (§3.3.1, [33],[24] vs [10],[22]).
//
// All selectors break every CDFG loop; the high-level ones pick variables
// that SHARE scan registers, so the physical scan count after binding is
// lower — the survey's "significantly fewer scan FFs than conventional
// processes".
#include "common.h"

#include "cdfg/loops.h"
#include "hls/datapath_builder.h"
#include "rtl/area.h"
#include "rtl/sgraph.h"
#include "testability/rtl_scan.h"
#include "testability/scan_select.h"

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-SCANSEL",
      "Paper claim (§3.3): selecting scan VARIABLES for register sharing "
      "([33],[24])\nbreaks all CDFG loops with fewer scan registers than "
      "the gate-level MFVS rule.");

  util::Table table({"benchmark", "selector", "scan vars", "scan regs",
                     "loops broken", "area overhead"});
  bool proven = true;
  for (const cdfg::Cdfg& g : cdfg::standard_benchmarks()) {
    const auto loops = cdfg::cdfg_loops(g);
    if (loops.empty()) continue;
    const hls::Synthesis syn = bench::synthesize_standard(g);

    // Gate-level-style baseline: partial scan selected on the synthesized
    // RTL S-graph, where hardware-sharing loops inflate the requirement.
    {
      const graph::MfvsResult rtl_scan =
          testability::register_only_partial_scan(syn.rtl.datapath);
      proven &= rtl_scan.optimal;
      rtl::Datapath dp = syn.rtl.datapath;
      for (int reg : rtl_scan.set)
        dp.regs[reg].test_kind = rtl::TestRegKind::kScan;
      table.add_row({g.name(), "RTL MFVS (post-synth)", "-",
                     bench::mfvs_cell(rtl_scan), "all RTL loops",
                     util::fmt_pct(rtl::test_area_overhead(dp))});
    }

    struct Selector {
      std::string name;
      std::vector<cdfg::VarId> (*run)(const cdfg::Cdfg&);
    };
    const Selector selectors[] = {
        {"MFVS [10]", testability::select_scan_vars_mfvs},
        {"loop-cut [33]", testability::select_scan_vars_loopcut},
        {"boundary [24]", testability::select_scan_vars_boundary},
    };
    // select_scan_vars_mfvs returns the set alone; its proof comes from
    // the same solver on the same graph.
    proven &= graph::exact_mfvs(cdfg::var_dependence_graph(g),
                                {.ignore_self_loops = false})
                  .optimal;
    for (const Selector& sel : selectors) {
      const auto vars = sel.run(g);
      rtl::Datapath dp = syn.rtl.datapath;
      const int regs =
          testability::apply_scan(g, syn.binding, vars, dp);
      const bool broken = cdfg::breaks_all_cdfg_loops(g, vars);
      table.add_row({g.name(), sel.name, std::to_string(vars.size()),
                     std::to_string(regs),
                     broken ? std::to_string(loops.size()) + "/" +
                                  std::to_string(loops.size())
                            : "INCOMPLETE",
                     util::fmt_pct(rtl::test_area_overhead(dp))});
    }
  }
  bench::print_table(table);
  return bench::mfvs_exit_status(proven);
}
