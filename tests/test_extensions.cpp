// Tests for the extension layer: Verilog emission, scan chains + test
// time, transition/IDDQ grading (§7b future work), SCOAP, DOT export.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cdfg/benchmarks.h"
#include "cdfg/dot.h"
#include "cdfg/parser.h"
#include "cdfg/interp.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/delay_iddq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/scoap.h"
#include "hls/synthesis.h"
#include "rtl/dot.h"
#include "rtl/scan_chain.h"
#include "rtl/verilog.h"
#include "testability/scan_select.h"

namespace tsyn {
namespace {

hls::Synthesis synth(const cdfg::Cdfg& g) {
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  return hls::synthesize(g, opts);
}

TEST(Verilog, EmitsWellFormedModule) {
  const hls::Synthesis s = synth(cdfg::diffeq());
  const std::string v =
      rtl::emit_verilog(s.rtl.datapath, s.rtl.controller);
  EXPECT_NE(v.find("module diffeq"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("ctl_state"), std::string::npos);
  // Every register declared.
  for (const auto& reg : s.rtl.datapath.regs)
    EXPECT_NE(v.find(" " + reg.name + ";"), std::string::npos) << reg.name;
  // Balanced begin/end at least structurally.
  EXPECT_EQ(std::count(v.begin(), v.end(), '('),
            std::count(v.begin(), v.end(), ')'));
}

TEST(Verilog, ScanChainPortsAppearWithScan) {
  cdfg::Cdfg g = cdfg::iir_biquad();
  hls::Synthesis s = synth(g);
  const auto vars = testability::select_scan_vars_boundary(g);
  testability::apply_scan(g, s.binding, vars, s.rtl.datapath);
  const std::string v =
      rtl::emit_verilog(s.rtl.datapath, s.rtl.controller);
  EXPECT_NE(v.find("scan_en"), std::string::npos);
  EXPECT_NE(v.find("assign scan_out"), std::string::npos);
}

TEST(Verilog, TestModeExportsControlPorts) {
  const hls::Synthesis s = synth(cdfg::tseng());
  rtl::VerilogOptions opts;
  opts.include_controller = false;
  const std::string v =
      rtl::emit_verilog(s.rtl.datapath, s.rtl.controller, opts);
  EXPECT_EQ(v.find("ctl_state"), std::string::npos);
  EXPECT_NE(v.find("input ld_"), std::string::npos);
}

TEST(ScanChain, CoversAllScanRegisters) {
  cdfg::Cdfg g = cdfg::ewf();
  hls::Synthesis s = synth(g);
  const auto vars = testability::select_scan_vars_loopcut(g);
  testability::apply_scan(g, s.binding, vars, s.rtl.datapath);
  const rtl::ScanChainPlan plan = rtl::build_scan_chain(s.rtl.datapath);
  EXPECT_EQ(plan.order.size(), s.rtl.datapath.scan_registers().size());
  int bits = 0;
  for (int r : plan.order) bits += s.rtl.datapath.regs[r].width;
  EXPECT_EQ(plan.chain_bits, bits);
}

TEST(ScanChain, TestTimeScalesWithChainLength) {
  rtl::ScanChainPlan small;
  small.chain_bits = 16;
  rtl::ScanChainPlan big;
  big.chain_bits = 64;
  EXPECT_LT(small.test_cycles(100), big.test_cycles(100));
  // Empty chain: purely combinational application.
  rtl::ScanChainPlan none;
  EXPECT_EQ(none.test_cycles(100), 100);
}

TEST(ScanChain, EmptyWhenNothingScanned) {
  const hls::Synthesis s = synth(cdfg::dct4());
  const rtl::ScanChainPlan plan = rtl::build_scan_chain(s.rtl.datapath);
  EXPECT_TRUE(plan.order.empty());
  EXPECT_EQ(plan.chain_bits, 0);
}

TEST(Transition, NeedsTwoPatterns) {
  // A buffer: STR at the output needs pattern pair (0 -> 1).
  gl::Netlist n;
  const int a = n.add_input("a");
  const int g = n.add_gate(gl::GateType::kBuf, {a});
  const int o = n.add_gate(gl::GateType::kNot, {g});
  n.mark_output(o);
  std::vector<gl::TransitionFault> faults{{a, true}};
  // Constant-1 stream never launches a rising transition.
  std::vector<std::vector<gl::Bits>> all1{{gl::Bits::all1()}};
  EXPECT_EQ(transition_fault_coverage(n, all1, faults), 0.0);
  // Alternating stream does.
  std::vector<std::vector<gl::Bits>> alt{
      {gl::Bits::known(0xAAAAAAAAAAAAAAAAULL)}};
  EXPECT_EQ(transition_fault_coverage(n, alt, faults), 1.0);
}

TEST(Transition, CoverageAtMostStuckAt) {
  const hls::Synthesis s = synth(cdfg::tseng());
  rtl::Datapath dp = s.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = 4;
  const gl::ExpandedDesign e = gl::expand_datapath(dp, x);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(e.netlist.primary_inputs().size()), 4, 7);
  const auto tf = gl::enumerate_transition_faults(e.netlist);
  const double t_cov = gl::transition_fault_coverage(e.netlist, blocks, tf);
  const auto sa = gl::enumerate_faults(e.netlist);
  const double s_cov = gl::fault_coverage(e.netlist, blocks, sa);
  EXPECT_GT(t_cov, 0.3);
  EXPECT_LE(t_cov, s_cov + 1e-9);
}

TEST(Iddq, ActivationOnlyBeatsStuckAt) {
  const hls::Synthesis s = synth(cdfg::iir_biquad());
  rtl::Datapath dp = s.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = 4;
  const gl::ExpandedDesign e = gl::expand_datapath(dp, x);
  const auto faults = gl::enumerate_faults(e.netlist);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(e.netlist.primary_inputs().size()), 2, 3);
  const double iddq = gl::iddq_fault_coverage(e.netlist, blocks, faults);
  const double sa = gl::fault_coverage(e.netlist, blocks, faults);
  EXPECT_GE(iddq, sa - 1e-9);  // no propagation requirement
  EXPECT_GT(iddq, 0.95);
}

TEST(Scoap, InverterChain) {
  gl::Netlist n;
  const int a = n.add_input("a");
  const int g1 = n.add_gate(gl::GateType::kNot, {a});
  const int g2 = n.add_gate(gl::GateType::kNot, {g1});
  n.mark_output(g2);
  const gl::Scoap s = gl::compute_scoap(n);
  EXPECT_EQ(s.cc0[a], 1);
  EXPECT_EQ(s.cc1[g1], 2);  // needs a=0
  EXPECT_EQ(s.co[g2], 0);
  EXPECT_EQ(s.co[a], 2);
}

TEST(Scoap, AndGateAsymmetry) {
  gl::Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(gl::GateType::kAnd, {a, b});
  n.mark_output(g);
  const gl::Scoap s = gl::compute_scoap(n);
  EXPECT_EQ(s.cc1[g], 3);  // both inputs 1
  EXPECT_EQ(s.cc0[g], 2);  // one input 0
  EXPECT_EQ(s.co[a], 2);   // side input must be 1
}

TEST(Scoap, DeepLogicHarderThanShallow) {
  gl::Netlist n;
  const gl::Word a = gl::make_input_word(n, "a", 8);
  const gl::Word b = gl::make_input_word(n, "b", 8);
  const gl::Word p = gl::array_multiply(n, a, b);
  for (int bit : p) n.mark_output(bit);
  const gl::Scoap s = gl::compute_scoap(n);
  // High product bits are harder to control than low ones.
  EXPECT_LT(s.cc1[p[0]], s.cc1[p[7]]);
}

TEST(Dot, CdfgExportMentionsEverything) {
  const cdfg::Cdfg g = cdfg::diffeq();
  const std::string dot = cdfg::to_dot(g, {g.find_var("x")});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("xl"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // back edges
  EXPECT_NE(dot.find("color=red"), std::string::npos);     // highlight
}

TEST(Dot, DatapathAndSgraphExport) {
  const hls::Synthesis s = synth(cdfg::iir_biquad());
  const std::string d1 = rtl::datapath_to_dot(s.rtl.datapath);
  EXPECT_NE(d1.find("trapezium"), std::string::npos);  // FUs present
  const std::string d2 = rtl::sgraph_to_dot(s.rtl.datapath);
  EXPECT_NE(d2.find("->"), std::string::npos);
}

TEST(ControlFlow, GuardedOpsShareAnAluInTheSameStep) {
  // §7a: control-flow behaviors. The two guarded updates are mutually
  // exclusive, so binding may (and does) put them on one ALU even when
  // they occupy the same control step.
  const cdfg::Cdfg g = cdfg::conditional_update();
  const cdfg::OpId up = g.var(g.find_var("up")).def_op;
  const cdfg::OpId dn = g.var(g.find_var("dn")).def_op;

  const hls::Schedule s = hls::list_schedule(g, {});
  EXPECT_EQ(s.step_of_op[up], s.step_of_op[dn]);  // both ready at step 0
  EXPECT_TRUE(hls::ops_compatible(g, s, up, dn));

  const hls::Binding b = hls::make_binding(g, s);
  EXPECT_EQ(b.fu_of_op[up], b.fu_of_op[dn]);
  int alus = 0;
  for (auto t : b.fu_type)
    if (t == cdfg::FuType::kAlu) ++alus;
  EXPECT_EQ(alus, 1);
}

TEST(ControlFlow, InterpreterFollowsTheCondition) {
  const cdfg::Cdfg g = cdfg::conditional_update();
  const std::vector<cdfg::VarId> pis = g.inputs();  // d, mu, c
  // c=1 three times, then c=0 twice: k = 0 +mu +mu +mu -mu -mu = mu.
  std::vector<std::vector<std::uint64_t>> frames{
      {2, 5, 1}, {2, 5, 1}, {2, 5, 1}, {2, 5, 0}, {2, 5, 0}};
  const auto trace = cdfg::execute(g, frames);
  const cdfg::VarId kn = g.find_var("kn");
  EXPECT_EQ(trace[2][kn], 15u);
  EXPECT_EQ(trace[4][kn], 5u);
}

TEST(ControlFlow, UnguardedSameStepOpsStillConflict) {
  // Two adds without guards in one step may NOT share.
  cdfg::Cdfg g;
  const auto a = g.add_input("a");
  const auto t1 = g.add_op(cdfg::OpKind::kAdd, "t1", {a, a});
  const auto t2 = g.add_op(cdfg::OpKind::kAdd, "t2", {a, a});
  g.mark_output(t1);
  g.mark_output(t2);
  hls::Schedule s;
  s.num_steps = 1;
  s.step_of_op = {0, 0};
  EXPECT_FALSE(hls::ops_compatible(g, s, 0, 1));
  (void)t1;
  (void)t2;
}

TEST(DataFiles, ShipExamplesParseAndSynthesize) {
  for (const char* path :
       {"../data/correlator.cdfg", "../data/gradient_step.cdfg",
        "data/correlator.cdfg", "data/gradient_step.cdfg"}) {
    std::ifstream in(path);
    if (!in) continue;  // depends on the working directory
    std::stringstream buf;
    buf << in.rdbuf();
    const cdfg::Cdfg g = cdfg::parse_cdfg(buf.str());
    EXPECT_GT(g.num_ops(), 0);
    EXPECT_NO_THROW(synth(g));
    return;  // one directory hit is enough
  }
  GTEST_SKIP() << "data files not reachable from this working directory";
}

TEST(Verilog, AllBenchmarksEmit) {
  for (const cdfg::Cdfg& g : cdfg::standard_benchmarks()) {
    const hls::Synthesis s = synth(g);
    const std::string v =
        rtl::emit_verilog(s.rtl.datapath, s.rtl.controller);
    EXPECT_NE(v.find("module " + g.name()), std::string::npos) << g.name();
    EXPECT_NE(v.find("endmodule"), std::string::npos) << g.name();
  }
}

}  // namespace
}  // namespace tsyn
