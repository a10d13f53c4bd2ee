#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "bist/sessions.h"
#include "bist/tfb.h"
#include "cdfg/benchmarks.h"
#include "cdfg/generator.h"
#include "cdfg/loops.h"
#include "graph/mfvs.h"
#include "graph/scc.h"
#include "hls/fds.h"
#include "hls/synthesis.h"
#include "rtl/sgraph.h"
#include "testability/behavior_analysis.h"
#include "testability/ctrl_dft.h"
#include "testability/loop_avoid.h"
#include "testability/mobility_sched.h"
#include "testability/reg_assign.h"
#include "testability/rtl_scan.h"
#include "testability/scan_select.h"
#include "testability/testpoints.h"
#include "testability/transform.h"
#include "util/hash.h"

namespace tsyn::testability {
namespace {

using cdfg::Cdfg;

TEST(ScanSelect, AllSelectorsBreakAllLoops) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    for (const auto& select : {select_scan_vars_mfvs,
                               select_scan_vars_loopcut,
                               select_scan_vars_boundary}) {
      const auto vars = select(g);
      EXPECT_TRUE(cdfg::breaks_all_cdfg_loops(g, vars)) << g.name();
    }
  }
}

TEST(ScanSelect, LoopFreeGraphsNeedNothing) {
  EXPECT_TRUE(select_scan_vars_mfvs(cdfg::dct4()).empty());
  EXPECT_TRUE(select_scan_vars_loopcut(cdfg::dct4()).empty());
  EXPECT_TRUE(select_scan_vars_boundary(cdfg::dct4()).empty());
}

TEST(ScanSelect, SharingBeatsOrMatchesMfvsOnRegisters) {
  // The point of [33]/[24]: fewer scan REGISTERS than the MFVS transplant,
  // never more (after binding).
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    if (cdfg::cdfg_loops(g).empty()) continue;
    const hls::Synthesis s = hls::synthesize(g);
    const int regs_mfvs =
        count_scan_registers(g, s.binding, select_scan_vars_mfvs(g));
    const int regs_loopcut =
        count_scan_registers(g, s.binding, select_scan_vars_loopcut(g));
    EXPECT_LE(regs_loopcut, regs_mfvs + 1) << g.name();
    EXPECT_GT(regs_loopcut, 0) << g.name();
  }
}

TEST(ScanSelect, ApplyScanMarksRegisters) {
  const Cdfg g = cdfg::diffeq();
  hls::Synthesis s = hls::synthesize(g);
  const auto vars = select_scan_vars_boundary(g);
  const int count = apply_scan(g, s.binding, vars, s.rtl.datapath);
  EXPECT_GT(count, 0);
  EXPECT_EQ(static_cast<int>(s.rtl.datapath.scan_registers().size()), count);
  // Scanned datapath must have no CDFG-class loops left.
  const rtl::LoopStats stats = rtl::loop_stats(s.rtl.datapath, true);
  EXPECT_EQ(stats.cdfg_loops, 0) << g.name();
}

TEST(RegAssign, IoMaximizingBeatsLeftEdgeOnIoCount) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    const hls::Synthesis s = hls::synthesize(g);
    const IoAssignResult io = io_maximizing_assignment(s.binding.lifetimes);
    const int io_conventional =
        io_register_count(s.binding.lifetimes, s.binding.reg_of_lifetime);
    EXPECT_GE(io.num_io_regs, io_conventional) << g.name();
    // Register count stays within one of the left-edge optimum.
    EXPECT_LE(io.num_regs, s.binding.num_regs + 1) << g.name();
  }
}

TEST(RegAssign, MapIsConflictFree) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    const hls::Synthesis s = hls::synthesize(g);
    hls::Binding b = s.binding;
    const IoAssignResult io = io_maximizing_assignment(b.lifetimes);
    EXPECT_NO_THROW(hls::rebind_registers(g, b, io.reg_of_lifetime))
        << g.name();
  }
}

TEST(MobilitySched, ValidAndNoWorseThanFds) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    const int deadline = hls::critical_path_length(g) + 1;
    const hls::Schedule m = mobility_path_schedule(g, deadline);
    hls::validate_schedule(g, m, {});
    const cdfg::LifetimeAnalysis mlts =
        cdfg::analyze_lifetimes(g, m.step_of_op, m.num_steps);
    const IoAssignResult mio = io_maximizing_assignment(mlts);

    const hls::Schedule f = hls::force_directed_schedule(g, deadline);
    const cdfg::LifetimeAnalysis flts =
        cdfg::analyze_lifetimes(g, f.step_of_op, f.num_steps);
    const IoAssignResult fio = io_maximizing_assignment(flts);
    // Extra (non-I/O) registers never increase under the testability
    // scheduler.
    EXPECT_LE(mio.num_regs - mio.num_io_regs,
              fio.num_regs - fio.num_io_regs)
        << g.name();
  }
}

TEST(LoopAvoid, Fig1ReproducesThePaper) {
  // The paper's example: 3 control steps, 2 adders. A testability-blind
  // schedule/assignment can create the RA1->RA2->RA1 assignment loop; the
  // loop-avoiding flow must produce self-loops only.
  const Cdfg g = cdfg::fig1_example();
  LoopAvoidOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2}};
  opts.num_steps = 3;
  const LoopAvoidResult r = loop_avoiding_synthesis(g, opts);
  EXPECT_EQ(r.schedule.num_steps, 3);
  const hls::RtlDesign rtl = hls::build_rtl(g, r.schedule, r.binding);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  EXPECT_EQ(stats.breakable(), 0)
      << "assignment loops remain in the Figure-1 datapath";
}

TEST(LoopAvoid, PaperScheduleCreatesAssignmentLoop) {
  // Counter-check: the schedule the paper shows in Figure 1(b)
  // {+1:(1,A1), +2:(2,A2), +3:(2,A1), +4:(3,A2), +5:(3,A1)} really does
  // create an assignment loop in our datapath model.
  const Cdfg g = cdfg::fig1_example();
  hls::Schedule s;
  s.num_steps = 3;
  // Op order in fig1_example(): +1, +2, +3, +4, +5.
  s.step_of_op = {0, 1, 1, 2, 2};
  std::vector<int> fu_of_op = {0, 1, 0, 1, 0};  // A1=0, A2=1
  const hls::Binding b = hls::make_binding_with_fu_map(g, s, fu_of_op);
  const hls::RtlDesign rtl = hls::build_rtl(g, s, b);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  EXPECT_GT(stats.assignment_loops, 0);
}

TEST(LoopAvoid, AlternativeScheduleIsLoopFree) {
  // Figure 1(c): {+1:(1,A1), +2:(2,A1), +3:(1,A2), +4:(2,A2), +5:(3,A1)}
  // keeps each chain on one adder: self-loops only.
  const Cdfg g = cdfg::fig1_example();
  hls::Schedule s;
  s.num_steps = 3;
  s.step_of_op = {0, 1, 0, 1, 2};
  std::vector<int> fu_of_op = {0, 0, 1, 1, 0};
  const hls::Binding b = hls::make_binding_with_fu_map(g, s, fu_of_op);
  const hls::RtlDesign rtl = hls::build_rtl(g, s, b);
  const rtl::LoopStats stats = rtl::loop_stats(rtl.datapath);
  EXPECT_EQ(stats.breakable(), 0);
}

/// Assignment-class loops of the datapath's S-graph, enumerated; the
/// enumeration must finish below its cap for the count to be one.
int enumerated_assignment_loops(const rtl::Datapath& dp) {
  constexpr std::size_t kCap = 10000;
  const std::vector<rtl::DatapathLoop> loops =
      rtl::analyze_loops(dp, false, kCap);
  EXPECT_LT(loops.size(), kCap) << dp.name << ": enumeration saturated";
  return static_cast<int>(std::count_if(
      loops.begin(), loops.end(), [](const rtl::DatapathLoop& l) {
        return l.kind == rtl::LoopClass::kAssignmentLoop;
      }));
}

TEST(LoopAvoid, FarFewerAssignmentLoopsThanConventional) {
  // Under tight resources some cross-FU loops are unavoidable (the paper's
  // own caveat); the claim is a drastic reduction versus a testability-
  // blind flow at identical constraints. It counts loops, not registers
  // on them: dct4 keeps 8 registers on assignment loops either way.
  std::vector<Cdfg> graphs;
  graphs.push_back(cdfg::dct4());
  graphs.push_back(cdfg::tseng());
  for (const Cdfg& g : graphs) {
    LoopAvoidOptions opts;
    opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                    {cdfg::FuType::kMultiplier, 2}};
    opts.num_steps = hls::list_schedule(g, opts.resources).num_steps + 1;
    const LoopAvoidResult r = loop_avoiding_synthesis(g, opts);
    const hls::RtlDesign rtl = hls::build_rtl(g, r.schedule, r.binding);
    const int avoid = enumerated_assignment_loops(rtl.datapath);

    const hls::Schedule cs = hls::force_directed_schedule(g, opts.num_steps);
    const hls::Binding cb = hls::make_binding(g, cs);
    const hls::RtlDesign crtl = hls::build_rtl(g, cs, cb);
    const int conv = enumerated_assignment_loops(crtl.datapath);
    EXPECT_LE(avoid * 5, conv) << g.name() << " avoid=" << avoid
                               << " conv=" << conv;
  }
}

TEST(LoopAvoid, StatefulWithScanVarsLeavesNoUnbrokenLoops) {
  const Cdfg g = cdfg::iir_biquad();
  LoopAvoidOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  opts.scan_vars = select_scan_vars_loopcut(g);
  const LoopAvoidResult r = loop_avoiding_synthesis(g, opts);
  hls::RtlDesign rtl = hls::build_rtl(g, r.schedule, r.binding);
  apply_scan(g, r.binding, opts.scan_vars, rtl.datapath);
  const rtl::LoopStats after = rtl::loop_stats(rtl.datapath, true);
  EXPECT_EQ(after.breakable(), 0);
}

TEST(ScanSelect, MfvsSizesOnRandomCdfgsAreProvenMinimum) {
  // The CDFGs of PinnedDigestOnRandomCdfgs below. Their MFVS sets moved
  // when the exact solver became reduce-and-branch (contraction picks
  // other members of the same size); these sizes did not, except 72 ops
  // seed 3, whose 44-node cyclic core once fell back to greedy's 4.
  const std::size_t sizes[] = {2, 0, 1, 2, 2, 3, 3, 3, 2};
  int k = 0;
  for (int ops : {40, 56, 72}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      cdfg::GeneratorParams p;
      p.num_ops = ops;
      p.num_states = ops / 16;
      p.seed = seed;
      const Cdfg g = cdfg::random_cdfg(p);
      const graph::MfvsResult r = graph::exact_mfvs(
          cdfg::var_dependence_graph(g), {.ignore_self_loops = false});
      EXPECT_TRUE(r.optimal) << ops << "/" << seed;
      EXPECT_EQ(r.set, select_scan_vars_mfvs(g));
      EXPECT_EQ(r.set.size(), sizes[k++]) << ops << "/" << seed;
    }
  }
}

TEST(BehavioralSynthesis, PinnedDigestOnRandomCdfgs) {
  // Every decision of the greedy behavioral-synthesis loops on random
  // CDFGs, folded into one pinned hash: force-directed scheduling, clique-
  // partition binding (plain and weighted), loop-avoiding scheduling and
  // register assignment under each ablation, TFB/XTFB and test sessions.
  // Their incremental bookkeeping must not change a single choice.
  // Re-pinned when the exact MFVS changed which minimum set it returns:
  // select_scan_vars_loopcut adopts that set when it packs into fewer
  // registers (ScanSelect.MfvsSizesOnRandomCdfgsAreProvenMinimum).
  util::Fnv1a h;
  auto fold = [&h](const std::vector<int>& v) {
    h.u64(v.size());
    for (int x : v) h.i64(x);
  };
  const hls::Resources res{{cdfg::FuType::kAlu, 2},
                           {cdfg::FuType::kMultiplier, 2}};
  for (int ops : {40, 56, 72}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      cdfg::GeneratorParams p;
      p.num_ops = ops;
      p.num_states = ops / 16;
      p.seed = seed;
      const Cdfg g = cdfg::random_cdfg(p);

      const hls::Schedule s = hls::list_schedule(g, res);
      const hls::Binding b = hls::make_binding(g, s);
      fold(s.step_of_op);
      fold(b.fu_of_op);
      fold(b.reg_of_lifetime);
      fold(hls::force_directed_schedule(g, s.num_steps + 2).step_of_op);

      LoopAvoidOptions base;
      base.resources = res;
      base.scan_vars = select_scan_vars_loopcut(g);
      std::vector<LoopAvoidOptions> variants(5, base);
      variants[1].scan_vars.clear();
      variants[2].fu_cycle_cost = false;
      variants[3].structural_reg_edges = false;
      variants[4].scan_reuse_reward = false;
      for (const LoopAvoidOptions& lo : variants) {
        const LoopAvoidResult la = loop_avoiding_synthesis(g, lo);
        fold(la.schedule.step_of_op);
        fold(la.binding.fu_of_op);
        fold(la.binding.reg_of_lifetime);
      }

      const bist::TfbResult tfb = bist::tfb_synthesis(g, s);
      const bist::XtfbResult xtfb = bist::xtfb_synthesis(g, s);
      h.i64(tfb.num_tfbs).i64(tfb.num_input_regs);
      h.i64(xtfb.num_alus).i64(xtfb.cbilbos);
      for (const hls::Binding& sb : {b, bist::conflict_aware_binding(g, s)}) {
        const bist::SessionAnalysis sa = bist::schedule_test_sessions(g, sb);
        fold(sb.fu_of_op);
        h.i64(sa.num_sessions).i64(sa.num_conflicts);
      }
    }
  }
  EXPECT_EQ(h.value(), 0xa997765b9718823eull);
}

TEST(Transform, DeflectionsPreserveBehaviorShape) {
  const Cdfg g = cdfg::ar_lattice(3);
  const auto scan_vars = select_scan_vars_loopcut(g);
  const DeflectionResult r = insert_deflections(g, scan_vars);
  EXPECT_NO_THROW(r.transformed.validate());
  EXPECT_EQ(hls::critical_path_length(r.transformed),
            hls::critical_path_length(g));
  EXPECT_EQ(r.transformed.num_ops(), g.num_ops() + r.inserted);
  EXPECT_EQ(r.transformed.outputs().size(), g.outputs().size());
}

TEST(Transform, ScanRegisterCountNeverWorse) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    if (cdfg::cdfg_loops(g).empty()) continue;
    const auto scan_vars = select_scan_vars_loopcut(g);
    const DeflectionResult t = insert_deflections(g, scan_vars);

    const hls::Synthesis before = hls::synthesize(g);
    const hls::Synthesis after = hls::synthesize(t.transformed);
    const int regs_before =
        count_scan_registers(g, before.binding, scan_vars);
    const int regs_after =
        count_scan_registers(t.transformed, after.binding, scan_vars);
    EXPECT_LE(regs_after, regs_before) << g.name();
  }
}

TEST(CtrlDft, EliminatesAllConflicts) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    hls::Synthesis s = hls::synthesize(g);
    const ControllerDftResult r = apply_controller_dft(s.rtl.controller);
    EXPECT_EQ(r.conflicts_after, 0) << g.name();
    EXPECT_DOUBLE_EQ(r.pair_coverage_after, 1.0) << g.name();
    if (r.conflicts_before > 0) {
      EXPECT_GE(r.vectors_added, 1) << g.name();
    }
  }
}

TEST(CtrlDft, FewVectorsSuffice) {
  // "Only a few extra control vectors" (§3.5): the augmentation must stay
  // small relative to the functional vector count.
  hls::Synthesis s = hls::synthesize(cdfg::ewf());
  const int functional = s.rtl.controller.num_vectors();
  const ControllerDftResult r = apply_controller_dft(s.rtl.controller);
  EXPECT_LE(r.vectors_added, functional);
}

TEST(TestPoints, KLevelNeedsFewerThanScan) {
  const Cdfg g = cdfg::ewf();
  hls::SynthesisOptions so;
  so.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                {cdfg::FuType::kMultiplier, 1}};
  hls::Synthesis s = hls::synthesize(g, so);

  rtl::Datapath dp0 = s.rtl.datapath;
  const std::vector<int> scan_k0 = register_only_partial_scan(dp0).set;

  rtl::Datapath dp2 = s.rtl.datapath;
  const TestPointResult tp2 = insert_klevel_test_points(dp2, 2, false);
  EXPECT_LE(tp2.total(), static_cast<int>(scan_k0.size()) * 2);
  EXPECT_EQ(klevel_violations(dp2, 2, tp2.control_point_regs,
                              tp2.observe_point_regs),
            0);
}

TEST(TestPoints, LargerKNeedsFewerPoints) {
  const Cdfg g = cdfg::ar_lattice(4);
  const hls::Synthesis s = hls::synthesize(g);
  int prev = 1 << 20;
  for (int k = 0; k <= 3; ++k) {
    rtl::Datapath dp = s.rtl.datapath;
    const TestPointResult r = insert_klevel_test_points(dp, k, false);
    EXPECT_LE(r.total(), prev) << "k=" << k;
    prev = r.total();
  }
}

/// Independent k-level oracle: a loop is k-level controllable (observable)
/// when one of its registers is at control (observe) distance <= k, so a
/// violating loop exists exactly when the registers farther than k on
/// either side induce a strongly connected component of >= 2 registers.
bool klevel_violation_exists(const rtl::Datapath& dp, int k,
                             const std::vector<int>& control_points = {},
                             const std::vector<int>& observe_points = {}) {
  const graph::Digraph s = rtl::build_sgraph(dp);
  const CoDistances d = co_distances(dp, control_points, observe_points);
  for (const std::vector<int>* dist : {&d.control, &d.observe}) {
    std::vector<bool> far(dist->size());
    for (std::size_t r = 0; r < far.size(); ++r)
      far[r] = (*dist)[r] < 0 || (*dist)[r] > k;
    for (const auto& members :
         graph::strongly_connected_components(s.induced_subgraph(far))
             .members)
      if (members.size() >= 2) return true;
  }
  return false;
}

/// Registers on an enumerated loop of >= 2 registers that is not k-level
/// controllable or not k-level observable; exact only when the
/// enumeration did not stop at its cap.
int enumerated_violating_registers(const rtl::Datapath& dp, int k) {
  const CoDistances d = co_distances(dp, {}, {});
  const auto near = [k](int dist) { return dist >= 0 && dist <= k; };
  std::vector<bool> on(static_cast<std::size_t>(dp.num_regs()), false);
  for (const rtl::DatapathLoop& loop : rtl::analyze_loops(dp)) {
    if (loop.kind == rtl::LoopClass::kSelfLoop) continue;
    bool controllable = false;
    bool observable = false;
    for (graph::NodeId r : loop.registers) {
      controllable |= near(d.control[r]);
      observable |= near(d.observe[r]);
    }
    if (controllable && observable) continue;
    for (graph::NodeId r : loop.registers) on[r] = true;
  }
  return static_cast<int>(std::count(on.begin(), on.end(), true));
}

TEST(TestPoints, KLevelViolationsMatchSccOracle) {
  // The EXP-KLEVEL designs at 1 ALU + 1 multiplier. ar6 and wave8 have
  // more loops than the capped enumeration visits; the SCC oracle sees all
  // of them. Every design violates at k = 0. Where the enumeration
  // finishes, it gives the exact register count too. After insertion at
  // k, with the test points as extra BFS sources, no violation is left.
  std::vector<Cdfg> graphs;
  graphs.push_back(cdfg::iir_biquad());
  graphs.push_back(cdfg::diffeq());
  graphs.push_back(cdfg::ar_lattice(6));
  graphs.push_back(cdfg::wave_filter(8));
  int saturated = 0;
  for (const Cdfg& g : graphs) {
    hls::SynthesisOptions so;
    so.resources = hls::Resources{{cdfg::FuType::kAlu, 1},
                                  {cdfg::FuType::kMultiplier, 1}};
    const rtl::Datapath dp = hls::synthesize(g, so).rtl.datapath;
    const bool capped = rtl::analyze_loops(dp).size() == 10000;
    saturated += capped;
    EXPECT_GT(klevel_violations(dp, 0), 0) << g.name();
    for (int k = 0; k <= 3; ++k) {
      EXPECT_EQ(klevel_violation_exists(dp, k),
                klevel_violations(dp, k) != 0)
          << g.name() << " k=" << k;
      if (!capped) {
        EXPECT_EQ(enumerated_violating_registers(dp, k),
                  klevel_violations(dp, k))
            << g.name() << " k=" << k;
      }
      rtl::Datapath tp_dp = dp;
      const TestPointResult tp = insert_klevel_test_points(tp_dp, k, false);
      EXPECT_EQ(klevel_violations(dp, k, tp.control_point_regs,
                                  tp.observe_point_regs),
                0)
          << g.name() << " k=" << k;
      EXPECT_FALSE(klevel_violation_exists(dp, k, tp.control_point_regs,
                                           tp.observe_point_regs))
          << g.name() << " k=" << k;
    }
  }
  EXPECT_GE(saturated, 2);
}

TEST(TestPoints, LoopCutOffFromInputsAndOutputsIsCountedAndFixed) {
  // R1 -> ALU0 -> R2 -> ALU1 -> R1 reaches no I/O register (R0), so both
  // registers are at distance -1 on both sides: violating at every k. No
  // single point clears a register on both sides, so insertion falls back
  // to giving R1 a control and an observe point.
  using rtl::Source;
  rtl::Datapath dp;
  dp.name = "island";
  dp.primary_inputs.push_back({"x", 8});
  dp.regs.resize(3);
  dp.fus.resize(2);
  for (int f = 0; f < 2; ++f) {
    rtl::FuInfo& fu = dp.fus[f];
    fu.name = "ALU" + std::to_string(f);
    fu.width = 8;
    fu.op_kinds = {cdfg::OpKind::kAdd};
    const Source in{Source::Kind::kRegister, f + 1};
    fu.port_drivers = {{in}, {in}};
  }
  for (int r = 0; r < 3; ++r) {
    dp.regs[r].name = "R" + std::to_string(r);
    dp.regs[r].width = 8;
  }
  dp.regs[0].is_input = true;
  dp.regs[0].is_output = true;
  dp.regs[0].drivers = {{Source::Kind::kPrimaryInput, 0}};
  dp.regs[1].drivers = {{Source::Kind::kFu, 1}};
  dp.regs[2].drivers = {{Source::Kind::kFu, 0}};
  dp.primary_outputs.push_back({"y", {Source::Kind::kRegister, 0}});
  dp.validate();
  for (int k = 0; k <= 2; ++k) {
    EXPECT_EQ(klevel_violations(dp, k), 2) << "k=" << k;
    EXPECT_TRUE(klevel_violation_exists(dp, k)) << "k=" << k;
    rtl::Datapath tp_dp = dp;
    const TestPointResult tp = insert_klevel_test_points(tp_dp, k, false);
    EXPECT_EQ(tp.control_point_regs, std::vector<int>{1}) << "k=" << k;
    EXPECT_EQ(tp.observe_point_regs, std::vector<int>{1}) << "k=" << k;
    EXPECT_EQ(klevel_violations(dp, k, tp.control_point_regs,
                                tp.observe_point_regs),
              0)
        << "k=" << k;
  }
}

TEST(TestPoints, ApplyAddsIoStructure) {
  const Cdfg g = cdfg::iir_biquad();
  hls::Synthesis s = hls::synthesize(g);
  rtl::Datapath& dp = s.rtl.datapath;
  const std::size_t pis = dp.primary_inputs.size();
  const std::size_t pos = dp.primary_outputs.size();
  const TestPointResult r = insert_klevel_test_points(dp, 1, true);
  EXPECT_EQ(dp.primary_inputs.size(), pis + r.control_point_regs.size());
  EXPECT_EQ(dp.primary_outputs.size(), pos + r.observe_point_regs.size());
  EXPECT_NO_THROW(dp.validate());
}

TEST(RtlScan, BreaksAllLoopsBothWays) {
  for (const Cdfg& g : cdfg::standard_benchmarks()) {
    hls::SynthesisOptions so;
    so.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
    hls::Synthesis s = hls::synthesize(g, so);
    rtl::Datapath dp = s.rtl.datapath;
    const RtlScanResult r = rtl_partial_scan(dp, true);
    // After scanning + transparent registers, recompute: scan regs are
    // excluded; transparent FUs modelled by r only — verify via the
    // register-only graph when no transparent FUs were used.
    if (r.transparent_fus.empty()) {
      EXPECT_EQ(rtl::loop_stats(dp, true).breakable(), 0) << g.name();
    }
    const std::vector<int> reg_only = register_only_partial_scan(dp).set;
    EXPECT_LE(r.total(),
              static_cast<int>(reg_only.size() + dp.scan_registers().size()))
        << g.name();
  }
}

TEST(BehaviorAnalysis, SeedsAndPropagation) {
  const Cdfg g = cdfg::diffeq();
  const BehaviorTestability t = analyze_behavior(g);
  // Primary inputs are controllable; outputs observable.
  for (cdfg::VarId v : g.inputs())
    EXPECT_EQ(t.ctrl[v], CtrlClass::kControllable);
  for (cdfg::VarId v : g.outputs())
    EXPECT_EQ(t.obs[v], ObsClass::kObservable);
  // xl = x + dx with x partial: partial or better.
  const cdfg::VarId xl = g.find_var("xl");
  EXPECT_NE(t.ctrl[xl], CtrlClass::kUncontrollable);
}

TEST(BehaviorAnalysis, AddChainFullyControllable) {
  Cdfg g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto c = g.add_op(cdfg::OpKind::kAdd, "c", {a, b});
  const auto d = g.add_op(cdfg::OpKind::kSub, "d", {c, b});
  g.mark_output(d);
  const BehaviorTestability t = analyze_behavior(g);
  EXPECT_EQ(t.ctrl[c], CtrlClass::kControllable);
  EXPECT_EQ(t.ctrl[d], CtrlClass::kControllable);
  EXPECT_EQ(t.obs[c], ObsClass::kObservable);
  EXPECT_EQ(t.obs[a], ObsClass::kObservable);
}

TEST(BehaviorAnalysis, ComparisonCollapsesObservability) {
  Cdfg g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto c = g.add_op(cdfg::OpKind::kLt, "c", {a, b});
  g.mark_output(c);
  const BehaviorTestability t = analyze_behavior(g);
  EXPECT_EQ(t.obs[a], ObsClass::kPartial);
}

TEST(BehaviorAnalysis, TestStatementsImproveClasses) {
  // A behavior with an unobservable internal chain.
  Cdfg g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto m = g.add_op(cdfg::OpKind::kMul, "m", {a, b});
  const auto c = g.add_op(cdfg::OpKind::kLt, "c", {m, b});
  g.mark_output(c);
  const BehaviorTestability before = analyze_behavior(g);
  EXPECT_EQ(before.obs[m], ObsClass::kPartial);

  TestStatementOptions opts;
  opts.include_partial = true;
  const TestStatementResult r = add_test_statements(g, opts);
  EXPECT_GT(r.observations, 0);
  const BehaviorTestability after = analyze_behavior(r.transformed);
  EXPECT_EQ(after.obs[m], ObsClass::kObservable);
}

TEST(BehaviorAnalysis, TestStatementsValidateAndSynthesize) {
  const Cdfg g = cdfg::iir_biquad();
  TestStatementOptions opts;
  opts.include_partial = true;
  const TestStatementResult r = add_test_statements(g, opts);
  EXPECT_NO_THROW(r.transformed.validate());
  EXPECT_NO_THROW(hls::synthesize(r.transformed));
}

}  // namespace
}  // namespace tsyn::testability
