// Quickstart: synthesize a behavior, inspect the datapath, measure its
// testability, verify it against the behavioral interpreter.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "cdfg/benchmarks.h"
#include "cdfg/interp.h"
#include "hls/synthesis.h"
#include "rtl/area.h"
#include "rtl/controller.h"
#include "rtl/sgraph.h"

int main() {
  using namespace tsyn;

  // 1. A behavior: the classic HAL differential-equation solver.
  const cdfg::Cdfg g = cdfg::diffeq();
  std::printf("%s\n", g.to_string().c_str());

  // 2. Conventional high-level synthesis: resource-constrained list
  //    scheduling, clique-partitioned FUs, left-edge registers.
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 1},
                                  {cdfg::FuType::kMultiplier, 2}};
  const hls::Synthesis syn = hls::synthesize(g, opts);
  std::printf("schedule: %d control steps\n%s\n", syn.schedule.num_steps,
              syn.rtl.datapath.to_string().c_str());

  // 3. Testability snapshot: the S-graph loop taxonomy of the survey, as
  //    the number of registers on each class of loop.
  const rtl::LoopStats loops = rtl::loop_stats(syn.rtl.datapath);
  std::printf(
      "registers on S-graph loops: %d self (tolerable), %d assignment, "
      "%d CDFG (state)\n",
      loops.self_loops, loops.assignment_loops, loops.cdfg_loops);
  std::printf("area: %.0f gate equivalents\n",
              rtl::datapath_area(syn.rtl.datapath));
  std::printf("controller: %d signals x %d vectors, %zu pair conflicts\n\n",
              syn.rtl.controller.num_signals(),
              syn.rtl.controller.num_vectors(),
              rtl::find_pair_conflicts(syn.rtl.controller).size());

  // 4. Execute the behavior: Euler steps of y'' = -3xy' - 3y.
  std::printf("behavioral execution (dx=1, a=100):\n");
  std::vector<std::vector<std::uint64_t>> frames(5, {1, 100});
  const auto trace = cdfg::execute(g, frames);
  const cdfg::VarId xl = g.find_var("xl");
  const cdfg::VarId yl = g.find_var("yl");
  for (std::size_t i = 0; i < trace.size(); ++i)
    std::printf("  iter %zu: x=%llu y=%llu\n", i,
                static_cast<unsigned long long>(trace[i][xl]),
                static_cast<unsigned long long>(trace[i][yl]));
  return 0;
}
