// EXP-LOOPAVOID — avoiding assignment loops during scheduling/assignment
// (§3.3.2, [33]).
//
// Same resources, same deadline: the conventional (FDS + clique/left-edge)
// flow forms many hardware-sharing loops; the simultaneous flow forms few
// to none, so far fewer registers must be scanned afterwards.
#include "common.h"

#include "graph/mfvs.h"
#include "hls/datapath_builder.h"
#include "hls/fds.h"
#include "rtl/area.h"
#include "rtl/sgraph.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"

namespace tsyn {
namespace {

/// Adds the row; returns whether its scan-register count is proven minimum.
bool add_row(util::Table& table, const cdfg::Cdfg& g,
             const std::string& flow, const hls::Schedule& s,
             const hls::Binding& b,
             const std::vector<cdfg::VarId>& scan_vars) {
  hls::RtlDesign rtl = hls::build_rtl(g, s, b);
  const auto loops = rtl::analyze_loops(rtl.datapath, false, bench::kMaxLoops);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  // Scan registers the flow commits to (CDFG loop breaking), plus whatever
  // the RTL still needs on top (MFVS over the scan-excluded S-graph).
  // Plain RTL MFVS on the same datapath is always available as a fallback;
  // a designer takes whichever allocation is smaller. The count is an
  // upper bound ("<=N") unless both MFVS are proven minimum.
  const graph::MfvsResult plain = graph::exact_mfvs(
      rtl::build_sgraph(rtl.datapath), {.ignore_self_loops = true});
  const int committed =
      testability::apply_scan(g, b, scan_vars, rtl.datapath);
  const graph::Digraph sg =
      rtl::build_sgraph(rtl.datapath, /*exclude_scan=*/true);
  const graph::MfvsResult extra =
      graph::exact_mfvs(sg, {.ignore_self_loops = true});
  const int total = std::min(committed + static_cast<int>(extra.set.size()),
                             static_cast<int>(plain.set.size()));
  const bool proven = plain.optimal && extra.optimal;
  table.add_row({g.name(), flow, std::to_string(s.num_steps),
                 std::to_string(b.num_regs),
                 bench::loop_count_cell(loops, rtl::LoopClass::kSelfLoop),
                 bench::loop_count_cell(loops,
                                        rtl::LoopClass::kAssignmentLoop),
                 bench::loop_count_cell(loops, rtl::LoopClass::kCdfgLoop),
                 std::to_string(stats.self_loops),
                 std::to_string(stats.assignment_loops),
                 std::to_string(stats.cdfg_loops),
                 (proven ? "" : "<=") + std::to_string(total)});
  return proven;
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-LOOPAVOID",
      "Paper claim (§3.3.2, [33]): scheduling and assignment chosen "
      "together avoid\nloop formation under the same performance/resource "
      "constraints, so loop-free,\nhighly testable designs need far fewer "
      "scan registers.");

  // Loops as enumerated (">=N" where the enumeration hit its cap), then
  // the exact number of registers on each class of loop.
  util::Table table({"benchmark", "flow", "csteps", "regs", "self",
                     "assignment", "cdfg", "self regs", "assignment regs",
                     "cdfg regs", "scan regs needed"});
  bool proven = true;
  for (const cdfg::Cdfg& g : cdfg::standard_benchmarks()) {
    const hls::Resources res = bench::standard_resources();
    const int deadline = hls::list_schedule(g, res).num_steps + 1;

    // Conventional, testability-blind: all loop breaking happens at RTL.
    const hls::Schedule cs = hls::force_directed_schedule(g, deadline);
    const hls::Binding cb = hls::make_binding(g, cs);
    proven &= add_row(table, g, "conventional", cs, cb, {});

    // [33] loop-avoiding (scan vars for the CDFG loops pre-selected, as
    // the paper's flow does).
    testability::LoopAvoidOptions opts;
    opts.resources = res;
    opts.num_steps = deadline;
    opts.scan_vars = testability::select_scan_vars_loopcut(g);
    const testability::LoopAvoidResult r =
        testability::loop_avoiding_synthesis(g, opts);
    proven &= add_row(table, g, "[33] simultaneous", r.schedule, r.binding,
                      opts.scan_vars);
  }
  bench::print_table(table);
  return bench::mfvs_exit_status(proven);
}
