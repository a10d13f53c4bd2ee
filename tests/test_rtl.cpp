#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/benchmarks.h"
#include "cdfg/generator.h"
#include "hls/fds.h"
#include "hls/synthesis.h"
#include "rtl/area.h"
#include "rtl/controller.h"
#include "rtl/sgraph.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"

namespace tsyn::rtl {
namespace {

/// Minimal hand-built datapath: R0 -> ALU -> R1 -> ALU (loop through two
/// registers) plus a self-looping accumulator R2.
Datapath tiny_datapath() {
  Datapath dp;
  dp.name = "tiny";
  dp.primary_inputs.push_back({"x", 8});
  dp.regs.resize(3);
  dp.fus.resize(1);
  FuInfo& alu = dp.fus[0];
  alu.name = "ALU0";
  alu.type = cdfg::FuType::kAlu;
  alu.width = 8;
  alu.op_kinds = {cdfg::OpKind::kAdd};
  alu.port_drivers = {{{Source::Kind::kRegister, 0},
                       {Source::Kind::kRegister, 1}},
                      {{Source::Kind::kRegister, 2}}};
  dp.regs[0].name = "R0";
  dp.regs[0].width = 8;
  dp.regs[0].is_input = true;
  dp.regs[0].drivers = {{Source::Kind::kPrimaryInput, 0},
                        {Source::Kind::kFu, 0}};
  dp.regs[1].name = "R1";
  dp.regs[1].width = 8;
  dp.regs[1].drivers = {{Source::Kind::kFu, 0}};
  dp.regs[2].name = "R2";
  dp.regs[2].width = 8;
  dp.regs[2].holds_state = true;
  dp.regs[2].drivers = {{Source::Kind::kFu, 0}};
  dp.regs[1].is_output = true;
  dp.primary_outputs.push_back({"y", {Source::Kind::kRegister, 1}});
  dp.validate();
  return dp;
}

TEST(Sgraph, EdgesThroughFu) {
  const Datapath dp = tiny_datapath();
  const graph::Digraph s = build_sgraph(dp);
  // Every ALU operand register reaches every ALU-loaded register.
  EXPECT_TRUE(s.has_edge(0, 1));
  EXPECT_TRUE(s.has_edge(1, 0));
  EXPECT_TRUE(s.has_edge(2, 2));  // self-loop on the accumulator
  EXPECT_TRUE(s.has_edge(0, 0));  // R0 loads from FU fed by R0
}

TEST(Sgraph, ScanExclusionRemovesNode) {
  Datapath dp = tiny_datapath();
  dp.regs[0].test_kind = TestRegKind::kScan;
  const graph::Digraph s = build_sgraph(dp, /*exclude_scan=*/true);
  EXPECT_EQ(s.out_degree(0), 0);
  EXPECT_EQ(s.in_degree(0), 0);
}

TEST(Sgraph, LoopClassification) {
  const Datapath dp = tiny_datapath();
  const auto loops = analyze_loops(dp);
  LoopStats stats = loop_stats(dp);
  // All three registers reload through the shared ALU: three self-loops.
  EXPECT_EQ(stats.self_loops, 3);
  // R0<->R1 contains no state register: assignment loop.
  EXPECT_GT(stats.assignment_loops, 0);
  // Loops through the state-holding R2 classify as CDFG loops.
  bool found_cdfg_class = false;
  for (const auto& l : loops)
    if (l.kind == LoopClass::kCdfgLoop) found_cdfg_class = true;
  EXPECT_TRUE(found_cdfg_class);
}

TEST(Sgraph, CdfgLoopClassOnStateCycle) {
  Datapath dp = tiny_datapath();
  // Make R2 part of a length-2 loop: R2 -> (ALU port) ... R1 -> R2 is
  // already there via the ALU; mark R1 as state-holding instead.
  dp.regs[1].holds_state = true;
  const auto loops = analyze_loops(dp);
  bool found = false;
  for (const auto& l : loops)
    if (l.kind == LoopClass::kCdfgLoop && l.registers.size() > 1)
      found = true;
  EXPECT_TRUE(found);
}

/// The `LoopStats` of a datapath recomputed from its enumerated loops, or
/// nothing when the enumeration reached its cap and so may miss loops.
std::optional<LoopStats> enumerated_stats(const Datapath& dp,
                                          bool exclude_scan) {
  constexpr std::size_t kCap = 10000;
  const std::vector<DatapathLoop> loops = analyze_loops(dp, exclude_scan, kCap);
  if (loops.size() >= kCap) return std::nullopt;
  LoopStats stats;
  std::set<graph::NodeId> state_regs, assignment_regs;
  for (const DatapathLoop& l : loops) {
    if (l.kind == LoopClass::kSelfLoop) {
      ++stats.self_loops;
      continue;
    }
    for (graph::NodeId r : l.registers) {
      if (dp.regs[r].holds_state) state_regs.insert(r);
      if (l.kind == LoopClass::kAssignmentLoop) assignment_regs.insert(r);
    }
  }
  stats.cdfg_loops = static_cast<int>(state_regs.size());
  stats.assignment_loops = static_cast<int>(assignment_regs.size());
  return stats;
}

/// The conventional (force-directed, testability-blind) and the [33]
/// loop-avoiding datapath of `g` at the standard allocation and a deadline
/// one step past the list schedule.
std::vector<Datapath> both_flows(const cdfg::Cdfg& g) {
  const hls::Resources res{{cdfg::FuType::kAlu, 2},
                           {cdfg::FuType::kMultiplier, 2}};
  const int deadline = hls::list_schedule(g, res).num_steps + 1;
  const hls::Schedule cs = hls::force_directed_schedule(g, deadline);
  const hls::Binding cb = hls::make_binding(g, cs);
  testability::LoopAvoidOptions opts;
  opts.resources = res;
  opts.num_steps = deadline;
  opts.scan_vars = testability::select_scan_vars_loopcut(g);
  const testability::LoopAvoidResult la =
      testability::loop_avoiding_synthesis(g, opts);
  return {hls::build_rtl(g, cs, cb).datapath,
          hls::build_rtl(g, la.schedule, la.binding).datapath};
}

TEST(Sgraph, LoopStatsMatchUnsaturatedEnumeration) {
  // Differential oracle: wherever Johnson's enumeration finishes below its
  // cap, the registers on its loops are exactly what the SCC-based
  // loop_stats counts. Random datapaths also run with every third register
  // scanned, to cover scan exclusion.
  std::vector<std::pair<std::string, Datapath>> designs;
  for (const cdfg::Cdfg& g : cdfg::standard_benchmarks())
    for (Datapath& dp : both_flows(g)) designs.emplace_back(g.name(), dp);
  for (int ops : {12, 20, 28}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      cdfg::GeneratorParams p;
      p.num_ops = ops;
      p.num_states = ops / 8;
      p.seed = seed;
      const cdfg::Cdfg g = cdfg::random_cdfg(p);
      for (Datapath& dp : both_flows(g))
        designs.emplace_back(g.name() + "/" + std::to_string(seed), dp);
    }
  }
  int checked = 0, with_assignment = 0, with_cdfg = 0;
  for (auto& [name, dp] : designs) {
    for (const bool exclude_scan : {false, true}) {
      if (exclude_scan)
        for (int r = 0; r < dp.num_regs(); r += 3)
          dp.regs[r].test_kind = TestRegKind::kScan;
      const std::optional<LoopStats> want = enumerated_stats(dp, exclude_scan);
      if (!want) continue;
      const LoopStats got = loop_stats(dp, exclude_scan);
      EXPECT_EQ(got.self_loops, want->self_loops) << name;
      EXPECT_EQ(got.cdfg_loops, want->cdfg_loops) << name;
      EXPECT_EQ(got.assignment_loops, want->assignment_loops) << name;
      ++checked;
      with_assignment += want->assignment_loops > 0;
      with_cdfg += want->cdfg_loops > 0;
    }
  }
  // The comparison must have covered enough datapaths with both loop
  // classes to mean something.
  EXPECT_GE(checked, 50);
  EXPECT_GE(with_assignment, 30);
  EXPECT_GE(with_cdfg, 20);
}

TEST(Sgraph, LoopStatsCountSelfLoopsOnSaturatedGraph) {
  // fir8 through the conventional flow has more S-graph cycles than the
  // enumeration's cap, and the capped enumeration finds none of its
  // self-loops; the edge scan finds all 8.
  const Datapath dp = both_flows(cdfg::fir(8)).front();
  EXPECT_EQ(analyze_loops(dp).size(), 10000u);
  const LoopStats stats = loop_stats(dp);
  EXPECT_EQ(stats.self_loops, 8);
  EXPECT_EQ(stats.assignment_loops, 2);
}

TEST(Sgraph, DepthAfterScan) {
  Datapath dp = tiny_datapath();
  EXPECT_EQ(datapath_sequential_depth(dp), -1);  // loops present
  dp.regs[0].test_kind = TestRegKind::kScan;
  dp.regs[2].test_kind = TestRegKind::kScan;
  EXPECT_GE(datapath_sequential_depth(dp, true), 0);
}

TEST(Sgraph, IoRegisterCount) {
  EXPECT_EQ(io_register_count(tiny_datapath()), 2);
}

TEST(Area, ScanCostsMoreThanPlain) {
  RegisterInfo plain;
  plain.width = 16;
  RegisterInfo scan = plain;
  scan.test_kind = TestRegKind::kScan;
  RegisterInfo cbilbo = plain;
  cbilbo.test_kind = TestRegKind::kCbilbo;
  EXPECT_LT(register_area(plain), register_area(scan));
  EXPECT_LT(register_area(scan), register_area(cbilbo));
}

TEST(Area, MultiplierDominatesAlu) {
  FuInfo alu;
  alu.type = cdfg::FuType::kAlu;
  alu.width = 16;
  FuInfo mul;
  mul.type = cdfg::FuType::kMultiplier;
  mul.width = 16;
  EXPECT_GT(fu_area(mul), 4 * fu_area(alu));
}

TEST(Area, OverheadFractionPositiveWithTestRegs) {
  Datapath dp = tiny_datapath();
  EXPECT_DOUBLE_EQ(test_area_overhead(dp), 0.0);
  dp.regs[0].test_kind = TestRegKind::kScan;
  const double overhead = test_area_overhead(dp);
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 0.5);
}

TEST(Area, DatapathAreaMonotoneInWidth) {
  Datapath dp = tiny_datapath();
  const double a8 = datapath_area(dp);
  for (auto& r : dp.regs) r.width = 16;
  for (auto& f : dp.fus) f.width = 16;
  EXPECT_GT(datapath_area(dp), a8);
}

TEST(Controller, ValueAndPairQueries) {
  Controller c;
  const int s0 = c.add_signal("sel", 3);
  const int s1 = c.add_signal("ld", 2);
  c.add_vector({0, 1});
  c.add_vector({1, 0});
  c.add_vector({2, -1});  // don't-care load
  EXPECT_TRUE(c.value_occurs(s0, 2));
  EXPECT_TRUE(c.pair_occurs(s0, 0, s1, 1));
  EXPECT_FALSE(c.pair_occurs(s0, 0, s1, 0));
  EXPECT_TRUE(c.pair_occurs(s0, 2, s1, 1));  // via the don't-care
}

TEST(Controller, ConflictDetectionAndResolution) {
  Controller c;
  c.add_signal("a", 2);
  c.add_signal("b", 2);
  c.add_vector({0, 1});
  c.add_vector({1, 0});
  // (a=0,b=0) and (a=1,b=1) never co-occur.
  const auto conflicts = find_pair_conflicts(c);
  EXPECT_EQ(conflicts.size(), 2u);
  EXPECT_LT(pair_coverage(c), 1.0);
  const int added = add_conflict_resolving_vectors(c);
  EXPECT_GE(added, 1);
  EXPECT_TRUE(find_pair_conflicts(c).empty());
  EXPECT_DOUBLE_EQ(pair_coverage(c), 1.0);
  EXPECT_EQ(c.num_test_vectors(), added);
}

TEST(Controller, NoConflictsNoVectors) {
  Controller c;
  c.add_signal("a", 2);
  c.add_vector({0});
  c.add_vector({1});
  EXPECT_EQ(add_conflict_resolving_vectors(c), 0);
}

TEST(Controller, RangeChecks) {
  Controller c;
  c.add_signal("a", 2);
  EXPECT_THROW(c.add_vector({5}), std::runtime_error);
  EXPECT_THROW(c.add_vector({0, 0}), std::runtime_error);
  c.add_vector({1});
  EXPECT_THROW(c.add_signal("late", 2), std::runtime_error);
}

TEST(Controller, SynthesizedControllersHaveConflicts) {
  // Real schedules almost always imply control implications; verify the
  // analysis finds them on a synthesized diffeq controller.
  const hls::Synthesis r = hls::synthesize(cdfg::diffeq());
  EXPECT_GT(find_pair_conflicts(r.rtl.controller).size(), 0u);
}

}  // namespace
}  // namespace tsyn::rtl
