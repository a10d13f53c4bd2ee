// FIG1 — reproduces Figure 1 of the paper.
//
// The example CDFG (two addition chains), 3 control steps, 2 adders.
// Schedule/assignment (b) creates the assignment loop RA1->RA2->RA1 and
// needs one scan register to break it; schedule/assignment (c) confines
// each chain to one adder and leaves only tolerable self-loops, needing no
// scan register. The loop-avoiding synthesis of [33] must find a
// loop-free solution automatically.
#include "common.h"

#include "graph/mfvs.h"
#include "hls/datapath_builder.h"
#include "rtl/sgraph.h"
#include "testability/loop_avoid.h"

namespace tsyn {
namespace {

struct Row {
  std::string label;
  hls::Schedule schedule;
  hls::Binding binding;
};

/// Adds the row; returns whether its scan-register count is proven minimum.
bool report(util::Table& table, const cdfg::Cdfg& g, const Row& row) {
  const hls::RtlDesign rtl = hls::build_rtl(g, row.schedule, row.binding);
  const auto loops =
      rtl::analyze_loops(rtl.datapath, false, bench::kMaxLoops);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  // Scan registers needed to break all non-self loops: exact MFVS on the
  // S-graph.
  const graph::Digraph s = rtl::build_sgraph(rtl.datapath);
  const auto scan = graph::exact_mfvs(s, {.ignore_self_loops = true});
  table.add_row({row.label, std::to_string(row.schedule.num_steps),
                 std::to_string(row.binding.num_fus()),
                 std::to_string(row.binding.num_regs),
                 bench::loop_count_cell(loops, rtl::LoopClass::kSelfLoop),
                 bench::loop_count_cell(loops,
                                        rtl::LoopClass::kAssignmentLoop),
                 std::to_string(stats.self_loops),
                 std::to_string(stats.assignment_loops),
                 bench::mfvs_cell(scan)});
  return scan.optimal;
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "FIG1",
      "Paper claim (Fig. 1): assignment (b) forms loop RA1->RA2->RA1 -> 1 "
      "scan register;\nassignment (c) leaves self-loops only -> 0 scan "
      "registers; [33] finds (c)-like\nsolutions automatically.");

  const cdfg::Cdfg g = cdfg::fig1_example();
  bool proven = true;
  util::Table table({"flow", "csteps", "adders", "regs", "self-loops",
                     "assignment-loops", "self-loop regs",
                     "assignment-loop regs", "scan regs needed"});

  // (b): the paper's loop-forming schedule.
  {
    hls::Schedule s;
    s.num_steps = 3;
    s.step_of_op = {0, 1, 1, 2, 2};  // +1,+2,+3,+4,+5
    const hls::Binding b =
        hls::make_binding_with_fu_map(g, s, {0, 1, 0, 1, 0});
    proven &= report(table, g, {"fig1(b) blind", s, b});
  }
  // (c): the paper's loop-free alternative.
  {
    hls::Schedule s;
    s.num_steps = 3;
    s.step_of_op = {0, 1, 0, 1, 2};
    const hls::Binding b =
        hls::make_binding_with_fu_map(g, s, {0, 0, 1, 1, 0});
    proven &= report(table, g, {"fig1(c) manual", s, b});
  }
  // [33]: simultaneous scheduling & assignment.
  {
    testability::LoopAvoidOptions opts;
    opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2}};
    opts.num_steps = 3;
    const testability::LoopAvoidResult r =
        testability::loop_avoiding_synthesis(g, opts);
    proven &= report(table, g, {"[33] loop-avoiding", r.schedule, r.binding});
  }
  bench::print_table(table);
  return bench::mfvs_exit_status(proven);
}
