// EXP-ABLATION — which ingredients of the loop-avoiding synthesis ([33])
// actually buy the loop reduction. Each knob is switched off in turn:
//   - fu-cost:     charging (FU, step) choices for FU-level cycles closed
//   - struct-edges: modelling the structural mux cross-product when placing
//                   registers (vs naive per-op producer/consumer edges)
//   - scan-reuse:  rewarding placement of intermediates into scan registers
#include "common.h"

#include "graph/mfvs.h"
#include "hls/datapath_builder.h"
#include "rtl/sgraph.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"

namespace tsyn {
namespace {

struct Variant {
  std::string name;
  bool fu_cost;
  bool struct_edges;
  bool scan_reuse;
};

/// Adds the row; returns whether its scan-register count is proven minimum.
bool run_variant(util::Table& table, const cdfg::Cdfg& g,
                 const Variant& v) {
  testability::LoopAvoidOptions opts;
  opts.resources = bench::standard_resources();
  opts.num_steps =
      hls::list_schedule(g, opts.resources).num_steps + 1;
  opts.scan_vars = testability::select_scan_vars_loopcut(g);
  opts.fu_cycle_cost = v.fu_cost;
  opts.structural_reg_edges = v.struct_edges;
  opts.scan_reuse_reward = v.scan_reuse;
  const testability::LoopAvoidResult r =
      testability::loop_avoiding_synthesis(g, opts);
  const hls::RtlDesign rtl = hls::build_rtl(g, r.schedule, r.binding);
  const auto loops = rtl::analyze_loops(rtl.datapath, false, bench::kMaxLoops);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  const graph::MfvsResult scan = graph::exact_mfvs(
      rtl::build_sgraph(rtl.datapath), {.ignore_self_loops = true});
  table.add_row({g.name(), v.name, std::to_string(r.binding.num_regs),
                 bench::loop_count_cell(loops,
                                        rtl::LoopClass::kAssignmentLoop),
                 bench::loop_count_cell(loops, rtl::LoopClass::kCdfgLoop),
                 std::to_string(stats.assignment_loops),
                 std::to_string(stats.cdfg_loops),
                 bench::mfvs_cell(scan)});
  return scan.optimal;
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-ABLATION",
      "Design-choice ablation of the loop-avoiding synthesis: switching "
      "each cost\nterm off shows what it contributes (DESIGN.md inventory).");

  const Variant variants[] = {
      {"full", true, true, true},
      {"-fu-cost", false, true, true},
      {"-struct-edges", true, false, true},
      {"-scan-reuse", true, true, false},
      {"none (blind greedy)", false, false, false},
  };
  util::Table table({"benchmark", "variant", "regs", "assignment loops",
                     "cdfg loops", "assignment-loop regs", "cdfg-loop regs",
                     "scan regs (MFVS)"});
  bool proven = true;
  std::vector<cdfg::Cdfg> graphs;
  graphs.push_back(cdfg::tseng());
  graphs.push_back(cdfg::dct4());
  graphs.push_back(cdfg::diffeq());
  graphs.push_back(cdfg::iir_biquad());
  for (const cdfg::Cdfg& g : graphs)
    for (const Variant& v : variants) proven &= run_variant(table, g, v);
  bench::print_table(table);
  return bench::mfvs_exit_status(proven);
}
