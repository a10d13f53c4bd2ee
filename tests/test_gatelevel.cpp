#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "cdfg/benchmarks.h"
#include "cdfg/parser.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "util/hash.h"
#include "util/rng.h"

namespace tsyn::gl {
namespace {

// Packs 64 per-lane word values into per-bit Bits for a word of PIs.
std::vector<Bits> pack_lanes(const std::vector<std::uint64_t>& lane_values,
                             int width) {
  std::vector<Bits> bits(width, Bits::all0());
  for (int lane = 0; lane < static_cast<int>(lane_values.size()); ++lane)
    for (int b = 0; b < width; ++b)
      if ((lane_values[lane] >> b) & 1) bits[b].v |= 1ULL << lane;
  return bits;
}

std::uint64_t unpack_lane(const std::vector<Bits>& values,
                          const std::vector<int>& word, int lane) {
  std::uint64_t out = 0;
  for (std::size_t b = 0; b < word.size(); ++b) {
    EXPECT_EQ((values[word[b]].x >> lane) & 1, 0u) << "unknown bit";
    if ((values[word[b]].v >> lane) & 1) out |= 1ULL << b;
  }
  return out;
}

struct BinOpRig {
  Netlist n;
  Word a;
  Word b;
  Word out;

  explicit BinOpRig(cdfg::OpKind kind, int width = 8) {
    a = make_input_word(n, "a", width);
    b = make_input_word(n, "b", width);
    const Word c = make_const_word(n, 0, width);
    out = build_op_result(n, kind, a, b, c);
    for (int bit : out) n.mark_output(bit);
    n.validate();
  }

  // Evaluates the op over 64 random operand pairs; returns (a, b, out).
  void check(std::uint64_t (*expected)(std::uint64_t, std::uint64_t),
             std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint64_t> va(64);
    std::vector<std::uint64_t> vb(64);
    for (int i = 0; i < 64; ++i) {
      va[i] = rng.next_u64() & 0xFF;
      vb[i] = rng.next_u64() & 0xFF;
    }
    std::vector<Bits> values(n.num_nodes(), Bits::unknown());
    const auto abits = pack_lanes(va, 8);
    const auto bbits = pack_lanes(vb, 8);
    for (int i = 0; i < 8; ++i) {
      values[a[i]] = abits[i];
      values[b[i]] = bbits[i];
    }
    simulate_frame(n, values);
    for (int lane = 0; lane < 64; ++lane)
      EXPECT_EQ(unpack_lane(values, out, lane),
                expected(va[lane], vb[lane]) & 0xFF)
          << "lane " << lane;
  }
};

TEST(Words, Adder) {
  BinOpRig rig(cdfg::OpKind::kAdd);
  rig.check([](std::uint64_t a, std::uint64_t b) { return a + b; }, 1);
}

TEST(Words, Subtractor) {
  BinOpRig rig(cdfg::OpKind::kSub);
  rig.check([](std::uint64_t a, std::uint64_t b) { return a - b; }, 2);
}

TEST(Words, Multiplier) {
  BinOpRig rig(cdfg::OpKind::kMul);
  rig.check([](std::uint64_t a, std::uint64_t b) { return a * b; }, 3);
}

TEST(Words, BitwiseOps) {
  BinOpRig andr(cdfg::OpKind::kAnd);
  andr.check([](std::uint64_t a, std::uint64_t b) { return a & b; }, 4);
  BinOpRig orr(cdfg::OpKind::kOr);
  orr.check([](std::uint64_t a, std::uint64_t b) { return a | b; }, 5);
  BinOpRig xorr(cdfg::OpKind::kXor);
  xorr.check([](std::uint64_t a, std::uint64_t b) { return a ^ b; }, 6);
}

TEST(Words, Comparisons) {
  BinOpRig lt(cdfg::OpKind::kLt);
  lt.check([](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
    return (a & 0xFF) < (b & 0xFF) ? 1 : 0;
  }, 7);
  BinOpRig eq(cdfg::OpKind::kEq);
  eq.check([](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
    return (a & 0xFF) == (b & 0xFF) ? 1 : 0;
  }, 8);
}

TEST(Words, UnaryOps) {
  BinOpRig no(cdfg::OpKind::kNot);
  no.check([](std::uint64_t a, std::uint64_t) { return ~a; }, 9);
  BinOpRig neg(cdfg::OpKind::kNeg);
  neg.check([](std::uint64_t a, std::uint64_t) { return 0 - a; }, 10);
}

TEST(Words, Shifts) {
  BinOpRig shl(cdfg::OpKind::kShl);
  shl.check([](std::uint64_t a, std::uint64_t) { return a << 1; }, 11);
  BinOpRig shr(cdfg::OpKind::kShr);
  shr.check([](std::uint64_t a, std::uint64_t) { return (a & 0xFF) >> 1; },
            12);
}

TEST(Netlist, XPropagationThroughAnd) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  std::vector<Bits> values(n.num_nodes(), Bits::unknown());
  values[a] = Bits::all0();  // known 0 dominates unknown
  simulate_frame(n, values);
  EXPECT_EQ(values[g].x, 0u);
  EXPECT_EQ(values[g].v, 0u);
  values[a] = Bits::all1();  // 1 AND X = X
  simulate_frame(n, values);
  EXPECT_EQ(values[g].x, ~0ULL);
}

TEST(Netlist, MuxXSelectAgreeingLegs) {
  Netlist n;
  const int s = n.add_input("s");
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int m = n.add_gate(GateType::kMux, {s, a, b});
  n.mark_output(m);
  std::vector<Bits> values(n.num_nodes(), Bits::unknown());
  values[a] = Bits::all1();
  values[b] = Bits::all1();
  simulate_frame(n, values);
  EXPECT_EQ(values[m].x, 0u);  // legs agree: select doesn't matter
  EXPECT_EQ(values[m].v, ~0ULL);
}

TEST(Netlist, CombinationalCycleRejected) {
  Netlist n;
  const int a = n.add_input("a");
  const int g1 = n.add_gate(GateType::kAnd, {a, a});
  // Create a cycle by abusing a DFF-free back edge: not directly
  // constructible through the API (fanins must exist), so validate the
  // DFF escape hatch instead: feedback through a DFF is legal.
  const int d = n.add_dff(-1);
  const int g2 = n.add_gate(GateType::kAnd, {g1, d});
  n.set_dff_input(d, g2);
  EXPECT_NO_THROW(n.validate());
}

TEST(Netlist, SequentialAccumulator) {
  // DFF accumulating a via an adder: q' = q + a (1-bit: q' = q XOR a).
  Netlist n;
  const int a = n.add_input("a");
  const int q = n.add_dff(-1, "q");
  const int x = n.add_gate(GateType::kXor, {a, q});
  n.set_dff_input(q, x);
  n.mark_output(x);
  std::vector<std::vector<Bits>> frames(3, {Bits::all1()});
  std::vector<Bits> init{Bits::all0()};
  const auto trace = simulate_sequence(n, frames, &init);
  EXPECT_EQ(trace[0][x].v, ~0ULL);  // 0 xor 1
  EXPECT_EQ(trace[1][x].v, 0u);     // 1 xor 1
  EXPECT_EQ(trace[2][x].v, ~0ULL);
}

// Gates wider than kMaxFanin (the simulators' on-stack fanin buffers) are
// split by add_gate into a tree that keeps the gate's three-valued truth
// function, with the requested (possibly inverting) type at the root.
TEST(Netlist, WideGatesSplitIntoTreesKeepTheirFunction) {
  util::Rng rng(17);
  for (int width : {17, 40}) {
    for (GateType type :
         {GateType::kAnd, GateType::kNand, GateType::kOr, GateType::kNor}) {
      Netlist n;
      std::vector<int> ins;
      for (int i = 0; i < width; ++i) ins.push_back(n.add_input());
      const int root = n.add_gate(type, ins, "root");
      n.mark_output(root);
      n.validate();
      EXPECT_EQ(n.node(root).type, type);
      EXPECT_EQ(n.node(root).name, "root");
      for (const Node& node : n.nodes())
        EXPECT_LE(static_cast<int>(node.fanins.size()), kMaxFanin);

      // Mostly-1 (AND) or mostly-0 (OR) lanes so the output is not
      // constant, plus sparse unknowns.
      std::vector<Bits> values(n.num_nodes(), Bits::unknown());
      std::vector<Bits> in_vals;
      for (int pi : ins) {
        const std::uint64_t sparse = rng.next_u64() & rng.next_u64() &
                                     rng.next_u64() & rng.next_u64();
        Bits b;
        b.x = sparse & rng.next_u64() & rng.next_u64();
        const bool and_like =
            type == GateType::kAnd || type == GateType::kNand;
        b.v = (and_like ? ~sparse : sparse) & ~b.x;
        values[pi] = b;
        in_vals.push_back(b);
      }
      simulate_frame(n, values);
      const Bits want = eval_gate(type, in_vals.data(), width);
      EXPECT_EQ(values[root].v, want.v) << to_string(type) << width;
      EXPECT_EQ(values[root].x, want.x) << to_string(type) << width;
    }
  }
}

TEST(Netlist, AddGateRawRejectsGatesWiderThanMaxFanin) {
  Netlist n;
  std::vector<int> ins;
  for (int i = 0; i <= kMaxFanin; ++i) ins.push_back(n.add_input());
  EXPECT_THROW(n.add_gate_raw(GateType::kAnd, ins), std::runtime_error);
  ins.pop_back();
  EXPECT_NO_THROW(n.add_gate_raw(GateType::kAnd, ins));
}

// A CDFG equality op expands to a `width`-input AND of XNORs; at widths
// past kMaxFanin it must still expand and run the ATPG campaign.
TEST(Expand, WideEqualityComparatorRunsAtpg) {
  const cdfg::Cdfg g =
      cdfg::parse_cdfg("input a\ninput b\nop eq c a b\noutput c\n");
  const hls::Synthesis syn = hls::synthesize(g);
  for (int width : {17, 32}) {
    rtl::Datapath dp = syn.rtl.datapath;
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
    ExpandOptions opts;
    opts.width_override = width;
    const Netlist n = expand_datapath(dp, opts).netlist;
    for (const Node& node : n.nodes())
      EXPECT_LE(static_cast<int>(node.fanins.size()), kMaxFanin);
    const auto faults = enumerate_faults(n);
    const AtpgCampaign c = run_combinational_atpg(n, faults);
    EXPECT_EQ(c.status.size(), faults.size());
    EXPECT_GT(c.fault_coverage, 0.5) << "width " << width;
  }
}

TEST(Faults, EnumerationCountsAndCollapse) {
  BinOpRig rig(cdfg::OpKind::kAdd);
  const auto full = enumerate_faults(rig.n, false);
  const auto collapsed = enumerate_faults(rig.n, true);
  EXPECT_GT(full.size(), collapsed.size());
  EXPECT_GT(collapsed.size(), 50u);
}

TEST(Faults, NoFaultsOnConstants) {
  Netlist n;
  const int c = n.add_const(true);
  const int a = n.add_input("a");
  const int g = n.add_gate(GateType::kAnd, {a, c});
  n.mark_output(g);
  for (const Fault& f : enumerate_faults(n))
    EXPECT_NE(f.node, c);
}

TEST(FaultSim, DetectsInverterFault) {
  Netlist n;
  const int a = n.add_input("a");
  const int g = n.add_gate(GateType::kNot, {a});
  n.mark_output(g);
  FaultSimulator sim(n);
  std::vector<Fault> faults{{g, -1, false}, {g, -1, true}};
  std::vector<bool> detected;
  sim.run_block({Bits::known(0x00FF00FF00FF00FFULL)}, faults, detected);
  EXPECT_TRUE(detected[0]);  // sa0 seen where output should be 1
  EXPECT_TRUE(detected[1]);
}

TEST(FaultSim, UndetectableWithoutActivation) {
  Netlist n;
  const int a = n.add_input("a");
  const int g = n.add_gate(GateType::kBuf, {a});
  n.mark_output(g);
  FaultSimulator sim(n);
  std::vector<Fault> faults{{g, -1, true}};
  std::vector<bool> detected;
  sim.run_block({Bits::all1()}, faults, detected);  // output already 1
  EXPECT_FALSE(detected[0]);
  sim.run_block({Bits::all0()}, faults, detected);
  EXPECT_TRUE(detected[0]);
}

TEST(FaultSim, AdderNearFullCoverageUnderRandom) {
  BinOpRig rig(cdfg::OpKind::kAdd);
  const auto faults = enumerate_faults(rig.n);
  const auto blocks = lfsr_pattern_blocks(
      static_cast<int>(rig.n.primary_inputs().size()), 8, 42);
  const double cov = fault_coverage(rig.n, blocks, faults);
  EXPECT_GT(cov, 0.98);
}

TEST(FaultSim, CoverageMonotoneInPatterns) {
  BinOpRig rig(cdfg::OpKind::kMul);
  const auto faults = enumerate_faults(rig.n);
  const auto few = lfsr_pattern_blocks(16, 1, 7);
  const auto many = lfsr_pattern_blocks(16, 8, 7);
  EXPECT_LE(fault_coverage(rig.n, few, faults),
            fault_coverage(rig.n, many, faults) + 1e-12);
}

TEST(Lfsr, PatternBlocksAreDigestPinned) {
  // Every bit of lfsr_pattern_blocks over shapes below, at and above one
  // and two 64-input groups, folded into one hash. The constant was
  // computed with the per-bit generator the transposed one replaced.
  util::Fnv1a h;
  const std::tuple<int, int, std::uint64_t> shapes[] = {
      {1, 1, 0},     {37, 2, 7},          {64, 1, 3},
      {130, 3, 11},  {300, 2, 0x5EED},    {700, 1, 42}};
  for (const auto& [inputs, count, seed] : shapes)
    for (const auto& block : lfsr_pattern_blocks(inputs, count, seed)) {
      h.u64(block.size());
      for (const Bits& b : block) h.u64(b.v).u64(b.x);
    }
  EXPECT_EQ(h.value(), 0x0535d2d9df0aba46ull);
}

TEST(Lfsr, SkipMatchesSteps) {
  for (int width : {8, 16, 24, 32, 64})
    for (int steps : {0, 1, 3, 4, 5, 59, 60, 61, 66, 200}) {
      Lfsr stepped(width, 0x9E3779B97F4A7C15ULL);
      Lfsr skipped = stepped;
      for (int s = 0; s < steps; ++s) stepped.step();
      skipped.skip(steps);
      EXPECT_EQ(skipped.state(), stepped.state())
          << "width " << width << " steps " << steps;
    }
}

TEST(FaultSim, SequentialDetection) {
  // Fault on the DFF requires two frames: load then observe.
  Netlist n;
  const int a = n.add_input("a");
  const int q = n.add_dff(-1, "q");
  n.set_dff_input(q, a);
  const int g = n.add_gate(GateType::kBuf, {q});
  n.mark_output(g);
  std::vector<Fault> faults{{q, -1, false}};
  const std::vector<std::vector<Bits>> frames{{Bits::all1()},
                                              {Bits::all1()}};
  const auto detected = sequential_fault_sim(n, frames, faults);
  EXPECT_TRUE(detected[0]);
  // One frame is not enough (the loaded 1 is never observed).
  const auto one = sequential_fault_sim(
      n, {{Bits::all1()}}, faults);
  EXPECT_FALSE(one[0]);
}

TEST(Expand, FullScanDatapathIsCombinational) {
  const hls::Synthesis r = hls::synthesize(cdfg::diffeq());
  rtl::Datapath dp = r.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  ExpandOptions opts;
  opts.width_override = 4;
  const ExpandedDesign x = expand_datapath(dp, opts);
  EXPECT_TRUE(x.netlist.flops().empty());
  EXPECT_FALSE(x.control_inputs.empty());
  EXPECT_GT(x.netlist.gate_count(), 100);
}

TEST(Expand, FunctionalDatapathKeepsFlops) {
  const hls::Synthesis r = hls::synthesize(cdfg::diffeq());
  ExpandOptions opts;
  opts.width_override = 4;
  const ExpandedDesign x = expand_datapath(r.rtl.datapath, opts);
  EXPECT_EQ(static_cast<int>(x.netlist.flops().size()),
            4 * r.rtl.datapath.num_regs());
}

TEST(Expand, PartialScanSplitsFlops) {
  const hls::Synthesis r = hls::synthesize(cdfg::diffeq());
  rtl::Datapath dp = r.rtl.datapath;
  dp.regs[0].test_kind = rtl::TestRegKind::kScan;
  ExpandOptions opts;
  opts.width_override = 4;
  const ExpandedDesign x = expand_datapath(dp, opts);
  EXPECT_EQ(static_cast<int>(x.netlist.flops().size()),
            4 * (dp.num_regs() - 1));
  // Scanned Q bits became PIs; D bits became POs.
  EXPECT_EQ(x.reg_q[0].size(), 4u);
  for (int bit : x.reg_q[0])
    EXPECT_EQ(x.netlist.node(bit).type, GateType::kInput);
}

TEST(Expand, ControllerSynthesisConsumesAllSignals) {
  const hls::Synthesis r = hls::synthesize(cdfg::diffeq());
  ExpandOptions opts;
  opts.width_override = 4;
  opts.controller = &r.rtl.controller;
  const ExpandedDesign x = expand_datapath(r.rtl.datapath, opts);
  EXPECT_TRUE(x.control_inputs.empty());
  EXPECT_FALSE(x.controller_state.empty());
  // Counter FFs exist beyond the register FFs.
  EXPECT_GT(static_cast<int>(x.netlist.flops().size()),
            4 * r.rtl.datapath.num_regs());
}

TEST(Expand, StandaloneFuMultiKind) {
  const Netlist n = expand_standalone_fu(
      {cdfg::OpKind::kAdd, cdfg::OpKind::kSub}, 8);
  // 3 operand words + 1 op-select line.
  EXPECT_EQ(n.primary_inputs().size(), 25u);
  EXPECT_EQ(n.primary_outputs().size(), 8u);
}

TEST(Bistgen, LfsrPeriodNontrivial) {
  Lfsr l(8, 1);
  const std::uint64_t start = l.state();
  int period = 0;
  do {
    l.step();
    ++period;
  } while (l.state() != start && period < 300);
  EXPECT_EQ(period, 255);  // maximal-length for width 8
}

TEST(Bistgen, LfsrAvoidsZeroState) {
  Lfsr l(16, 0);
  EXPECT_NE(l.state(), 0u);
}

TEST(Bistgen, MisrDistinguishesStreams) {
  Misr m1;
  Misr m2;
  for (int i = 0; i < 100; ++i) {
    m1.absorb(i);
    m2.absorb(i == 50 ? 999u : static_cast<std::uint64_t>(i));
  }
  EXPECT_NE(m1.signature(), m2.signature());
}

TEST(Bistgen, MisrSignatureIsPinnedOnWideWords) {
  // Response words with bits far above 31 set: the state is 64 bits wide
  // and absorbs every one of them.
  Misr m;
  for (std::uint64_t i = 1; i <= 20; ++i)
    m.absorb(0x9E3779B97F4A7C15ULL * i);
  EXPECT_EQ(m.signature(), 0x0d0fcb4cc06a9e80ULL);
}

TEST(Bistgen, AccumulatorSequenceWraps) {
  const auto seq = accumulator_sequence(8, 0x9d, 0, 300);
  EXPECT_EQ(seq.size(), 300u);
  for (std::uint64_t v : seq) EXPECT_LT(v, 256u);
  // Odd increment: full period 256, so 256 distinct values.
  std::set<std::uint64_t> uniq(seq.begin(), seq.begin() + 256);
  EXPECT_EQ(uniq.size(), 256u);
}

TEST(Bistgen, PackWordPatternsLayout) {
  std::vector<std::vector<std::uint64_t>> ports{{0xAB, 0x01}, {0xFF, 0x00}};
  const auto blocks = pack_word_patterns(ports, 8);
  ASSERT_EQ(blocks.size(), 1u);
  ASSERT_EQ(blocks[0].size(), 16u);
  // Lane 0, port 0 = 0xAB: bit 0 set, bit 2 set...
  EXPECT_EQ(blocks[0][0].v & 1, 1u);   // bit0 of 0xAB
  EXPECT_EQ(blocks[0][2].v & 1, 0u);   // bit2 of 0xAB = 0
  EXPECT_EQ(blocks[0][8].v & 1, 1u);   // port 1 bit 0 of 0xFF
  // Lane 1, port 0 = 0x01.
  EXPECT_EQ((blocks[0][0].v >> 1) & 1, 1u);
  EXPECT_EQ((blocks[0][1].v >> 1) & 1, 0u);
}

}  // namespace
}  // namespace tsyn::gl
