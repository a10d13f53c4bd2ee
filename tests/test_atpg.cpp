#include <gtest/gtest.h>

#include "cdfg/benchmarks.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/rng.h"

namespace tsyn::gl {
namespace {

TEST(Podem, SimpleAndGate) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  // Output sa0: needs a=b=1.
  const AtpgResult r = podem.generate({g, -1, false});
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.pi_values[0], V::k1);
  EXPECT_EQ(r.pi_values[1], V::k1);
}

TEST(Podem, InputFaultOnAnd) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  // a sa0 at the gate pin: set a=1 (activate), b=1 (propagate).
  const AtpgResult r = podem.generate({g, 0, false});
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.pi_values[0], V::k1);
  EXPECT_EQ(r.pi_values[1], V::k1);
}

TEST(Podem, UntestableRedundantFault) {
  // y = a OR (a AND b): the AND output sa0 is undetectable when a=1
  // masks it and a=0 blocks activation... actually a&b sa0 requires
  // a=1,b=1 to activate but then OR output is 1 either way: redundant.
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g1 = n.add_gate(GateType::kAnd, {a, b});
  const int g2 = n.add_gate(GateType::kOr, {a, g1});
  n.mark_output(g2);
  Podem podem(n);
  const AtpgResult r = podem.generate({g1, -1, false});
  EXPECT_EQ(r.status, AtpgStatus::kUntestable);
}

TEST(Podem, XorChainNeedsSpecificValues) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int c = n.add_input("c");
  const int g1 = n.add_gate(GateType::kXor, {a, b});
  const int g2 = n.add_gate(GateType::kXor, {g1, c});
  n.mark_output(g2);
  Podem podem(n);
  for (const Fault f : {Fault{g1, -1, false}, Fault{g1, -1, true},
                        Fault{a, -1, false}, Fault{a, -1, true}}) {
    const AtpgResult r = podem.generate(f);
    EXPECT_EQ(r.status, AtpgStatus::kDetected);
  }
}

TEST(Podem, AdderFullEfficiency) {
  Netlist n;
  const Word a = make_input_word(n, "a", 6);
  const Word b = make_input_word(n, "b", 6);
  const Word s = ripple_add(n, a, b, n.add_const(false));
  for (int bit : s) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  const AtpgCampaign c = run_combinational_atpg(n, faults);
  EXPECT_DOUBLE_EQ(c.fault_efficiency, 1.0);
  EXPECT_GT(c.fault_coverage, 0.999);
}

TEST(Podem, MultiplierHighCoverage) {
  Netlist n;
  const Word a = make_input_word(n, "a", 5);
  const Word b = make_input_word(n, "b", 5);
  const Word p = array_multiply(n, a, b);
  for (int bit : p) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  const AtpgCampaign c = run_combinational_atpg(n, faults, 2000);
  EXPECT_GT(c.fault_efficiency, 0.95);
  // The truncated array multiplier has genuinely redundant logic in the
  // upper carry chains, so coverage < efficiency is expected.
  EXPECT_GT(c.fault_coverage, 0.80);
}

TEST(Podem, GeneratedTestsActuallyDetect) {
  Netlist n;
  const Word a = make_input_word(n, "a", 4);
  const Word b = make_input_word(n, "b", 4);
  const Word s = ripple_sub(n, a, b);
  for (int bit : s) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  Podem podem(n);
  FaultSimulator sim(n);
  int checked = 0;
  for (std::size_t i = 0; i < faults.size() && checked < 25; i += 3) {
    const AtpgResult r = podem.generate(faults[i]);
    if (r.status != AtpgStatus::kDetected) continue;
    ++checked;
    std::vector<Bits> block(n.primary_inputs().size());
    for (std::size_t p = 0; p < block.size(); ++p)
      block[p] = r.pi_values[p] == V::k1   ? Bits::all1()
                 : r.pi_values[p] == V::k0 ? Bits::all0()
                                           : Bits::all0();
    std::vector<bool> det(faults.size(), false);
    // Mask everything except the target so run_block simulates it.
    std::vector<Fault> one{faults[i]};
    std::vector<bool> d1;
    sim.run_block(block, one, d1);
    EXPECT_TRUE(d1[0]) << "fault " << describe(n, faults[i]);
  }
  EXPECT_GE(checked, 20);
}

TEST(AtpgCampaign, ThreadCountChangesNothing) {
  // The campaign's fault-dropping grader shards the fault list over the
  // pool; the worker count must not change a status, a test, a recorded
  // grading block or the PODEM effort totals.
  Netlist n;
  const Word a = make_input_word(n, "a", 5);
  const Word b = make_input_word(n, "b", 5);
  const Word s = ripple_sub(n, a, b);
  for (int bit : s) n.mark_output(bit);
  const auto faults = enumerate_faults(n);

  auto campaign = [&](int threads) {
    FaultSimOptions o;
    o.num_threads = threads;
    return run_combinational_atpg(n, faults, 5000, o);
  };
  auto fill_words = [](const AtpgCampaign& c) {
    std::vector<std::uint64_t> words;
    for (const std::vector<Bits>& block : c.graded_fill)
      for (const Bits& pi : block) {
        words.push_back(pi.v);
        words.push_back(pi.x);
      }
    return words;
  };
  const AtpgCampaign one = campaign(1);
  const AtpgCampaign four = campaign(4);
  ASSERT_FALSE(one.tests.empty());
  EXPECT_EQ(one.status, four.status);
  EXPECT_EQ(one.tests, four.tests);
  EXPECT_EQ(fill_words(one), fill_words(four));
  EXPECT_EQ(one.total.decisions, four.total.decisions);
  EXPECT_EQ(one.total.backtracks, four.total.backtracks);
  EXPECT_EQ(one.total.implications, four.total.implications);
}

TEST(Podem, FrozenInputsStayX) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  podem.freeze_inputs({1});  // b may not be assigned
  const AtpgResult r = podem.generate({g, -1, false});
  // Detection impossible without b: PODEM must give up (untestable under
  // the freeze, reported as untestable after exhausting 'a').
  EXPECT_NE(r.status, AtpgStatus::kDetected);
}

TEST(Unroll, StructureAndMapping) {
  // 2-bit shift register.
  Netlist n;
  const int a = n.add_input("a");
  const int q0 = n.add_dff(-1, "q0");
  const int q1 = n.add_dff(-1, "q1");
  n.set_dff_input(q0, a);
  n.set_dff_input(q1, q0);
  n.mark_output(q1);
  const Unrolled u = unroll(n, 3);
  EXPECT_EQ(u.net.flops().size(), 0u);
  EXPECT_EQ(u.frozen_pi_positions.size(), 2u);  // frame-0 q0, q1
  // 3 frames x 1 PI + 2 frozen.
  EXPECT_EQ(u.net.primary_inputs().size(), 5u);
  EXPECT_EQ(u.net.primary_outputs().size(), 3u);
}

TEST(SeqAtpg, ShiftRegisterFaultNeedsPipelineDepth) {
  // Fault at the head of a 3-deep shift register needs 4 frames.
  Netlist n;
  const int a = n.add_input("a");
  int prev = a;
  std::vector<int> qs;
  for (int i = 0; i < 3; ++i) {
    const int q = n.add_dff(-1, "q" + std::to_string(i));
    n.set_dff_input(q, prev);
    qs.push_back(q);
    prev = q;
  }
  n.mark_output(prev);
  const SeqAtpgResult r = sequential_atpg(n, {a, -1, false}, 8);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.frames_used, 4);
}

TEST(SeqAtpg, TestVerifiedBySequentialSim) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int q = n.add_dff(-1, "q");
  const int g = n.add_gate(GateType::kAnd, {a, q});
  n.set_dff_input(q, b);
  n.mark_output(g);
  const Fault f{g, -1, false};
  const SeqAtpgResult r = sequential_atpg(n, f, 6);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  // Replay the generated frames through the sequential fault simulator.
  std::vector<std::vector<Bits>> frames;
  for (const auto& fv : r.frame_inputs) {
    std::vector<Bits> bits(fv.size());
    for (std::size_t i = 0; i < fv.size(); ++i)
      bits[i] = fv[i] == V::k1 ? Bits::all1() : Bits::all0();
    frames.push_back(bits);
  }
  const auto det = sequential_fault_sim(n, frames, {f});
  EXPECT_TRUE(det[0]);
}

TEST(SeqAtpg, CampaignOnResettableCounter) {
  // 2-bit toggle counter with synchronous reset:
  //   q0' = !rst & (q0 ^ en);  q1' = !rst & (q1 ^ (q0 & en)).
  // The reset gives ATPG an initialization path from the unknown state.
  Netlist n;
  const int en = n.add_input("en");
  const int rst = n.add_input("rst");
  const int nrst = n.add_gate(GateType::kNot, {rst});
  const int q0 = n.add_dff(-1, "q0");
  const int q1 = n.add_dff(-1, "q1");
  const int t0 = n.add_gate(GateType::kXor, {q0, en});
  const int c0 = n.add_gate(GateType::kAnd, {q0, en});
  const int t1 = n.add_gate(GateType::kXor, {q1, c0});
  const int d0 = n.add_gate(GateType::kAnd, {nrst, t0});
  const int d1 = n.add_gate(GateType::kAnd, {nrst, t1});
  n.set_dff_input(q0, d0);
  n.set_dff_input(q1, d1);
  n.mark_output(t0);
  n.mark_output(t1);
  const auto faults = enumerate_faults(n);
  const SeqAtpgCampaign c = run_sequential_atpg(n, faults, 8, 4000);
  EXPECT_GT(c.fault_coverage, 0.5);
  EXPECT_GT(c.total.decisions, 0);
}

// ---- PODEM identity and three-valued detection ----

/// diffeq through the standard synthesis flow, expanded at `width`: with
/// every register scanned (a combinational netlist) or with the MFVS scan
/// selection only (still sequential).
Netlist diffeq_netlist(int width, bool full_scan) {
  const cdfg::Cdfg g = cdfg::diffeq();
  const hls::Synthesis syn = hls::synthesize(g);
  rtl::Datapath dp = syn.rtl.datapath;
  if (full_scan) {
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  } else {
    testability::apply_scan(g, syn.binding,
                            testability::select_scan_vars_mfvs(g), dp);
  }
  ExpandOptions x;
  x.width_override = width;
  return expand_datapath(dp, x).netlist;
}

void fold_stats(util::Fnv1a& h, const AtpgStats& s) {
  h.i64(s.decisions).i64(s.backtracks).i64(s.implications);
}

void fold_cube(util::Fnv1a& h, const std::vector<V>& cube) {
  h.u64(cube.size());
  for (V v : cube) h.i64(static_cast<int>(v));
}

void fold_result(util::Fnv1a& h, const AtpgResult& r) {
  h.i64(static_cast<int>(r.status));
  fold_cube(h, r.pi_values);
  fold_stats(h, r.stats);
}

TEST(Podem, DecisionsAreDigestPinned) {
  // Every PODEM decision, backtrack, abort, implication pass and cube on
  // three entry points, folded into one digest. The implication engine may
  // change how it computes values, never which values it computes — so
  // the search, and this constant, must not move.
  util::Fnv1a h;
  {
    // Full-scan campaign at a backtrack limit small enough to abort.
    const Netlist n = diffeq_netlist(8, true);
    const auto faults = enumerate_faults(n);
    const AtpgCampaign c = run_combinational_atpg(n, faults, 8);
    int aborted = 0;
    for (AtpgStatus s : c.status) {
      h.i64(static_cast<int>(s));
      aborted += s == AtpgStatus::kAborted;
    }
    EXPECT_GE(aborted, 1);
    for (const auto& t : c.tests) fold_cube(h, t);
    fold_stats(h, c.total);

    // Per-target effort on a strided sample.
    Podem plain(n);
    for (std::size_t i = 0; i < faults.size(); i += 17)
      fold_result(h, plain.generate(faults[i], 8));
  }
  {
    // Time-frame PODEM on the MFVS partial-scan netlist.
    const Netlist n = diffeq_netlist(3, false);
    ASSERT_FALSE(n.flops().empty());
    const auto faults = enumerate_faults(n);
    std::vector<Fault> sample;
    for (std::size_t i = 0; i < faults.size(); i += faults.size() / 6)
      sample.push_back(faults[i]);
    const SeqAtpgCampaign c = run_sequential_atpg(n, sample, 4, 60);
    h.i64(c.detected).i64(c.untestable).i64(c.aborted);
    fold_stats(h, c.total);
    for (const Fault& f : sample) {
      const SeqAtpgResult r = sequential_atpg(n, f, 4, 60);
      h.i64(static_cast<int>(r.status)).i64(r.frames_used);
      fold_stats(h, r.stats);
      for (const auto& frame : r.frame_inputs) fold_cube(h, frame);
    }
  }
  EXPECT_EQ(h.hex(), "54dee33604a778a2");
}

/// Random combinational netlist over every gate kind, with MUXes and
/// AND/OR/NAND/NOR gates wide enough that add_gate splits them into trees.
Netlist random_wide_netlist(std::uint64_t seed, int gates, int inputs) {
  util::Rng rng(seed);
  Netlist n;
  std::vector<int> nodes;
  for (int i = 0; i < inputs; ++i)
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  static constexpr GateType kTypes[] = {
      GateType::kAnd, GateType::kOr,  GateType::kNand, GateType::kNor,
      GateType::kXor, GateType::kXnor, GateType::kNot, GateType::kBuf,
      GateType::kMux};
  for (int i = 0; i < gates; ++i) {
    const GateType t = kTypes[rng.pick_index(9)];
    int arity = 2;
    if (t == GateType::kNot || t == GateType::kBuf) arity = 1;
    if (t == GateType::kMux) arity = 3;
    if (t == GateType::kAnd || t == GateType::kOr || t == GateType::kNand ||
        t == GateType::kNor) {
      // One in eight is wider than kMaxFanin.
      arity = rng.pick_index(8) == 0
                  ? kMaxFanin + 1 + static_cast<int>(rng.pick_index(8))
                  : 2 + static_cast<int>(rng.pick_index(3));
    }
    std::vector<int> fanins;
    for (int a = 0; a < arity; ++a)
      fanins.push_back(nodes[rng.pick_index(nodes.size())]);
    nodes.push_back(n.add_gate(t, fanins));
  }
  for (int i = 0; i < 6; ++i) n.mark_output(nodes[nodes.size() - 1 - i]);
  n.validate();
  return n;
}

/// True when the cube, its X inputs left unknown, shows a definite
/// good != faulty value on some primary output.
bool cube_detects_three_valued(const Netlist& n, const std::vector<V>& cube,
                               const Fault& f) {
  std::vector<Bits> good(n.num_nodes(), Bits::unknown());
  for (std::size_t p = 0; p < cube.size(); ++p)
    good[n.primary_inputs()[p]] = cube[p] == V::k1   ? Bits::all1()
                                  : cube[p] == V::k0 ? Bits::all0()
                                                     : Bits::unknown();
  std::vector<Bits> faulty = good;
  simulate_frame(n, good);
  simulate_frame(n, faulty, &f);
  for (int po : n.primary_outputs()) {
    const Bits g = good[po];
    const Bits b = faulty[po];
    if (((g.x | b.x) & 1) == 0 && ((g.v ^ b.v) & 1) != 0) return true;
  }
  return false;
}

TEST(Podem, DetectedCubesDetectWithXInputsUnknown) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist n = random_wide_netlist(seed, 90, 12);
    const auto faults = enumerate_faults(n, /*collapse=*/false);
    Podem podem(n);
    for (const Fault& f : faults) {
      const AtpgResult r = podem.generate(f, 200);
      if (r.status != AtpgStatus::kDetected) continue;
      ++checked;
      EXPECT_TRUE(cube_detects_three_valued(n, r.pi_values, f))
          << "seed " << seed << " fault " << describe(n, f);
    }
  }
  EXPECT_GE(checked, 500);
}

}  // namespace
}  // namespace tsyn::gl
