// Test-set compaction subsystem: cube algebra, X-fill, reverse-order
// pruning, the derived shipped coverage, and the pattern-count acceptance
// contract on the benchmark DFGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "compaction/cube.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "util/hash.h"
#include "util/rng.h"

namespace tsyn::compaction {
namespace {

using gl::AtpgStatus;
using gl::Fault;
using gl::Netlist;
using gl::V;
using gl::Word;

TestCube cube(std::initializer_list<int> bits) {
  TestCube c;
  for (int b : bits)
    c.push_back(b == 0 ? V::k0 : b == 1 ? V::k1 : V::kX);
  return c;
}

// ---- cube algebra ----

TEST(Cube, SpecifiedCountAndCompatibility) {
  EXPECT_EQ(specified_count(cube({0, 1, 2, 2})), 2);
  EXPECT_TRUE(compatible(cube({0, 2, 1}), cube({0, 1, 2})));
  EXPECT_TRUE(compatible(cube({2, 2, 2}), cube({0, 1, 0})));
  EXPECT_FALSE(compatible(cube({0, 2}), cube({1, 2})));
  EXPECT_FALSE(compatible(cube({0, 2}), cube({0, 2, 2})));  // width mismatch
}

TEST(Cube, MergeIsIntersection) {
  const TestCube m = merge(cube({0, 2, 1, 2}), cube({2, 1, 1, 2}));
  EXPECT_EQ(m, cube({0, 1, 1, 2}));
}

TEST(Cube, GreedyMergeCoversEveryInputCube) {
  const std::vector<TestCube> in{cube({0, 2, 2}), cube({2, 1, 2}),
                                 cube({1, 2, 2}), cube({2, 2, 0}),
                                 cube({0, 1, 1})};
  const std::vector<TestCube> out = merge_compatible_cubes(in);
  EXPECT_LT(out.size(), in.size());
  // Every input cube must be refined by some output bin: the bin agrees
  // with all of the cube's specified bits.
  for (const TestCube& c : in) {
    bool covered = false;
    for (const TestCube& bin : out) {
      bool ok = true;
      for (std::size_t i = 0; i < c.size(); ++i)
        ok = ok && (c[i] == V::kX || bin[i] == c[i]);
      covered = covered || ok;
    }
    EXPECT_TRUE(covered);
  }
}

TEST(Cube, IncompatibleCubesNeverMerge) {
  const std::vector<TestCube> in{cube({0}), cube({1}), cube({0})};
  const std::vector<TestCube> out = merge_compatible_cubes(in);
  EXPECT_EQ(out.size(), 2u);
}

// ---- X-fill ----

TEST(XFill, ConstantFills) {
  std::vector<TestCube> zero{cube({0, 2, 1, 2})};
  apply_xfill(zero, XFill::kZero, 1);
  EXPECT_EQ(zero[0], cube({0, 0, 1, 0}));
  std::vector<TestCube> one{cube({0, 2, 1, 2})};
  apply_xfill(one, XFill::kOne, 1);
  EXPECT_EQ(one[0], cube({0, 1, 1, 1}));
}

TEST(XFill, AdjacentRepeatsNearestSpecifiedBit) {
  std::vector<TestCube> c{cube({2, 2, 1, 2, 0, 2}), cube({2, 2, 2})};
  apply_xfill(c, XFill::kAdjacent, 1);
  // Leading run copies the first specified bit; later Xs copy leftwards.
  EXPECT_EQ(c[0], cube({1, 1, 1, 1, 0, 0}));
  // All-X cube degenerates to 0-fill.
  EXPECT_EQ(c[1], cube({0, 0, 0}));
}

TEST(XFill, RandomIsSeedDeterministicAndComplete) {
  std::vector<TestCube> a{cube({2, 0, 2, 2}), cube({2, 2, 1, 2})};
  std::vector<TestCube> b = a;
  apply_xfill(a, XFill::kRandom, 42);
  apply_xfill(b, XFill::kRandom, 42);
  EXPECT_EQ(a, b);
  for (const TestCube& c : a)
    for (V v : c) EXPECT_NE(v, V::kX);
  std::vector<TestCube> c2{cube({2, 0, 2, 2}), cube({2, 2, 1, 2})};
  apply_xfill(c2, XFill::kRandom, 43);
  EXPECT_NE(a, c2);  // a different seed moves at least one of 6 X bits
  // Specified bits are never touched.
  EXPECT_EQ(a[0][1], V::k0);
  EXPECT_EQ(a[1][2], V::k1);
}

TEST(Options, ParseRoundTrips) {
  XFill f;
  EXPECT_TRUE(parse_xfill("random", &f));
  EXPECT_TRUE(parse_xfill("0", &f));
  EXPECT_EQ(f, XFill::kZero);
  EXPECT_TRUE(parse_xfill("adjacent", &f));
  EXPECT_FALSE(parse_xfill("bogus", &f));
  CompactMode m;
  for (CompactMode mode : {CompactMode::kOff, CompactMode::kStatic}) {
    EXPECT_TRUE(parse_compact_mode(to_string(mode), &m));
    EXPECT_EQ(m, mode);
  }
  EXPECT_FALSE(parse_compact_mode("dynamic", &m));
  EXPECT_FALSE(parse_compact_mode("", &m));
  for (XFill x : {XFill::kRandom, XFill::kZero, XFill::kOne, XFill::kAdjacent}) {
    XFill back;
    EXPECT_TRUE(parse_xfill(to_string(x), &back));
    EXPECT_EQ(back, x);
  }
}

// ---- grading utilities ----

Netlist small_adder(int width) {
  Netlist n;
  const Word a = gl::make_input_word(n, "a", width);
  const Word b = gl::make_input_word(n, "b", width);
  const Word s = gl::ripple_add(n, a, b, n.add_const(false));
  for (int bit : s) n.mark_output(bit);
  return n;
}

TEST(Grading, DetectionMatrixMatchesCoverage) {
  const Netlist n = small_adder(4);
  const auto faults = gl::enumerate_faults(n);
  // 70 patterns so the matrix spans a full block plus a partial one.
  std::vector<TestCube> patterns;
  util::Rng rng(7);
  for (int p = 0; p < 70; ++p) {
    TestCube c(n.primary_inputs().size());
    for (V& v : c) v = rng.next_bool() ? V::k1 : V::k0;
    patterns.push_back(c);
  }
  const auto matrix = detection_matrix(n, patterns, faults);
  const std::size_t nb = 2;
  ASSERT_EQ(matrix.size(), faults.size() * nb);
  std::vector<bool> det_from_matrix;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    det_from_matrix.push_back((matrix[f * nb] | matrix[f * nb + 1]) != 0);
    // Lanes 70..127 are padding, never credited.
    EXPECT_EQ(matrix[f * nb + 1] >> 6, 0u);
  }
  std::vector<bool> det;
  gl::fault_coverage(n, patterns_to_blocks(patterns), faults, &det);
  EXPECT_EQ(det_from_matrix, det);
  // Neither thread count nor lane width may change the matrix.
  for (int lanes : {64, 512}) {
    for (int threads : {1, 0}) {
      gl::FaultSimOptions o;
      o.num_threads = threads;
      o.lanes = lanes;
      EXPECT_EQ(matrix, detection_matrix(n, patterns, faults, o))
          << "lanes " << lanes << " threads " << threads;
    }
  }
}

TEST(Grading, ReverseOrderPruneKeepsCoverageDropsDuplicates) {
  const Netlist n = small_adder(4);
  const auto faults = gl::enumerate_faults(n);
  std::vector<TestCube> patterns;
  util::Rng rng(11);
  for (int p = 0; p < 20; ++p) {
    TestCube c(n.primary_inputs().size());
    for (V& v : c) v = rng.next_bool() ? V::k1 : V::k0;
    patterns.push_back(c);
    patterns.push_back(c);  // exact duplicate: at most one can survive
  }
  const std::vector<int> kept =
      prune_from_matrix(detection_matrix(n, patterns, faults),
                        patterns.size());
  EXPECT_LE(kept.size(), patterns.size() / 2);
  std::vector<TestCube> pruned;
  for (int p : kept) pruned.push_back(patterns[p]);
  std::vector<bool> det_all, det_pruned;
  gl::fault_coverage(n, patterns_to_blocks(patterns), faults, &det_all);
  gl::fault_coverage(n, patterns_to_blocks(pruned), faults, &det_pruned);
  EXPECT_EQ(det_all, det_pruned);
}

TEST(Grading, NdetectCountsEveryDetection) {
  const Netlist n = small_adder(3);
  const auto faults = gl::enumerate_faults(n);
  std::vector<TestCube> patterns;
  util::Rng rng(3);
  for (int p = 0; p < 40; ++p) {
    TestCube c(n.primary_inputs().size());
    for (V& v : c) v = rng.next_bool() ? V::k1 : V::k0;
    patterns.push_back(c);
  }
  const NdetectProfile prof = grade_ndetect(n, patterns, faults);
  std::vector<bool> det;
  const double cov =
      gl::fault_coverage(n, patterns_to_blocks(patterns), faults, &det);
  for (std::size_t f = 0; f < faults.size(); ++f)
    EXPECT_EQ(prof.counts[f] > 0, static_cast<bool>(det[f]));
  EXPECT_DOUBLE_EQ(prof.fraction_at_least(1), cov);
  EXPECT_GE(prof.fraction_at_least(1), prof.fraction_at_least(4));
}

// ---- the pipeline ----

TEST(Pipeline, OffModeIsBitIdenticalToPlainCampaign) {
  const Netlist n = small_adder(5);
  const auto faults = gl::enumerate_faults(n);
  const gl::AtpgCampaign plain = gl::run_combinational_atpg(n, faults);
  CompactionOptions copts;  // mode kOff
  const CompactedCampaign c = run_compacted_atpg(n, faults, copts);
  EXPECT_EQ(c.campaign.status, plain.status);
  EXPECT_EQ(c.campaign.tests, plain.tests);
  EXPECT_EQ(c.campaign.total.decisions, plain.total.decisions);
  EXPECT_EQ(c.campaign.total.backtracks, plain.total.backtracks);
  EXPECT_DOUBLE_EQ(c.campaign.fault_coverage, plain.fault_coverage);
  // The recorded grading fill is the new explicit contract: one block per
  // test, every lane fully specified.
  ASSERT_EQ(plain.graded_fill.size(), plain.tests.size());
  for (const auto& block : plain.graded_fill)
    for (const gl::Bits& b : block) EXPECT_EQ(b.x, 0u);
  EXPECT_EQ(c.patterns.size(), c.cubes.size());
  EXPECT_EQ(c.baseline_patterns, static_cast<long>(c.patterns.size()));
}

TEST(Pipeline, StaticCompactionNeverLosesCampaignCoverage) {
  const Netlist n = small_adder(6);
  const auto faults = gl::enumerate_faults(n);
  CompactionOptions copts;
  copts.mode = CompactMode::kStatic;
  copts.xfill = XFill::kZero;  // the adversarial fill for lucky detections
  const CompactedCampaign c = run_compacted_atpg(n, faults, copts);
  // The baseline is the pattern set the campaign's coverage certifies: all
  // 64 random completions of every cube (its graded_fill blocks).
  EXPECT_EQ(c.baseline_patterns,
            64 * static_cast<long>(c.campaign.tests.size()));
  EXPECT_LT(static_cast<long>(c.patterns.size()), c.baseline_patterns);
  EXPECT_GE(c.pattern_coverage, c.campaign.fault_coverage);
  // Ternary cubes survive in `cubes`; shipped patterns are fully filled.
  for (const TestCube& p : c.patterns)
    for (V v : p) EXPECT_NE(v, V::kX);
}

TEST(Pipeline, DeterministicAcrossThreadCounts) {
  const Netlist n = small_adder(5);
  const auto faults = gl::enumerate_faults(n);
  CompactionOptions copts;
  copts.mode = CompactMode::kStatic;
  copts.xfill = XFill::kAdjacent;
  const CompactedCampaign serial =
      run_compacted_atpg(n, faults, copts, 10000, gl::FaultSimOptions{1});
  const CompactedCampaign parallel =
      run_compacted_atpg(n, faults, copts, 10000, gl::FaultSimOptions{0});
  EXPECT_EQ(serial.patterns, parallel.patterns);
  EXPECT_EQ(serial.cubes, parallel.cubes);
  EXPECT_EQ(serial.campaign.status, parallel.campaign.status);
  EXPECT_DOUBLE_EQ(serial.pattern_coverage, parallel.pattern_coverage);
  // And run-to-run.
  const CompactedCampaign again =
      run_compacted_atpg(n, faults, copts, 10000, gl::FaultSimOptions{1});
  EXPECT_EQ(serial.patterns, again.patterns);
  // And at the wide grading lane width.
  gl::FaultSimOptions o;
  o.lanes = 512;
  const CompactedCampaign wide = run_compacted_atpg(n, faults, copts, 10000, o);
  EXPECT_EQ(serial.patterns, wide.patterns);
  EXPECT_EQ(serial.cubes, wide.cubes);
  EXPECT_EQ(serial.campaign.status, wide.campaign.status);
  EXPECT_DOUBLE_EQ(serial.pattern_coverage, wide.pattern_coverage);
}

// ---- acceptance: >= 25% pattern reduction on the benchmark DFGs ----

/// Full-scan gate-level expansion of a behavior: every register scanned,
/// so the netlist is combinational and PODEM-targetable.
Netlist full_scan_netlist(const cdfg::Cdfg& g, int width) {
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  hls::Synthesis syn = hls::synthesize(g, opts);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(dp, x).netlist;
}

TEST(Acceptance, BenchmarkDfgsCompactAtLeast25PercentAtEqualCoverage) {
  struct Case {
    const char* name;
    cdfg::Cdfg g;
  };
  std::vector<Case> cases;
  cases.push_back({"diffeq", cdfg::diffeq()});
  cases.push_back({"tseng", cdfg::tseng()});
  for (Case& c : cases) {
    const Netlist n = full_scan_netlist(c.g, 4);
    const auto faults = gl::enumerate_faults(n);
    const gl::AtpgCampaign plain =
        gl::run_combinational_atpg(n, faults, 10000);
    CompactionOptions copts;
    copts.mode = CompactMode::kStatic;
    copts.xfill = XFill::kAdjacent;
    const CompactedCampaign comp = run_compacted_atpg(n, faults, copts, 10000);
    // The uncompacted campaign realizes plain.fault_coverage only by
    // applying all 64 recorded random completions of each cube.
    EXPECT_EQ(comp.baseline_patterns,
              64 * static_cast<long>(plain.tests.size()))
        << c.name;
    // The acceptance contract: static compaction with reverse-order
    // pruning cuts pattern count by >= 25% while coverage
    // does not drop below the uncompacted campaign's.
    EXPECT_LE(static_cast<double>(comp.patterns.size()),
              0.75 * static_cast<double>(comp.baseline_patterns))
        << c.name << ": " << comp.patterns.size() << " vs "
        << comp.baseline_patterns;
    EXPECT_GE(comp.pattern_coverage, plain.fault_coverage) << c.name;
  }
}

// ---- the derived shipped coverage ----

#ifndef TSYN_LEDGER_NOOP
/// The pattern-domain waterfall the snapshot holds for `phase`, as
/// (universe, then (index, cumulative detected) per point).
std::vector<std::int64_t> waterfall_of(const observe::LedgerSnapshot& snap,
                                       const std::string& phase) {
  std::vector<std::int64_t> out;
  for (const observe::Waterfall& w : snap.waterfalls) {
    if (w.phase_name != phase || w.domain != "pattern") continue;
    out.push_back(w.universe);
    for (const observe::Waterfall::Point& p : w.curve) {
      out.push_back(p.index);
      out.push_back(p.detected);
    }
  }
  return out;
}
#endif

/// Faults of a run the shipped set's residual grade covers: not
/// detected by the campaign, nor by any kept (pre-top-up) pattern.
long static_residual(const Netlist& n, const std::vector<Fault>& faults,
                     const CompactedCampaign& c) {
  const std::vector<TestCube> kept(
      c.patterns.begin(), c.patterns.end() - c.stats.topup_patterns);
  const std::size_t nb = (kept.size() + 63) / 64;
  const std::vector<std::uint64_t> matrix = detection_matrix(n, kept, faults);
  long residual = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (c.campaign.status[f] == AtpgStatus::kDetected) continue;
    const auto row = matrix.begin() + static_cast<long>(f * nb);
    residual += std::all_of(row, row + static_cast<long>(nb),
                            [](std::uint64_t w) { return w == 0; });
  }
  return residual;
}

/// A 7-to-128 decoder (one AND per minterm, each an output) next to a
/// few 4-input ANDs over 8 more inputs. Every minterm cube is fully
/// specified and conflicts with every other, so the kept set spans two
/// 64-pattern blocks, and the ANDs' lucky fills leave faults to top up.
Netlist decoder_netlist() {
  Netlist n;
  std::vector<int> in, inv;
  for (int i = 0; i < 7; ++i) {
    in.push_back(n.add_input());
    inv.push_back(n.add_gate(gl::GateType::kNot, {in.back()}));
  }
  for (int m = 0; m < 128; ++m) {
    std::vector<int> literals;
    for (int i = 0; i < 7; ++i)
      literals.push_back((m >> i) & 1 ? in[i] : inv[i]);
    n.mark_output(n.add_gate(gl::GateType::kAnd, literals));
  }
  std::vector<int> extra;
  for (int i = 0; i < 8; ++i) extra.push_back(n.add_input());
  for (int i = 0; i + 2 < 8; ++i)
    n.mark_output(n.add_gate(gl::GateType::kAnd,
                             {extra[i], extra[i + 1], extra[i + 2], in[i]}));
  return n;
}

/// Random logic over 16 inputs with 24 outputs, small enough that merging
/// leaves a dozen incompatible bins, some of which pruning drops.
Netlist random_logic(std::uint64_t seed) {
  util::Rng rng(seed);
  Netlist n;
  std::vector<int> nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(n.add_input());
  static constexpr gl::GateType kTypes[] = {
      gl::GateType::kAnd, gl::GateType::kOr,  gl::GateType::kNand,
      gl::GateType::kNor, gl::GateType::kXor, gl::GateType::kNot};
  for (int i = 0; i < 120; ++i) {
    const gl::GateType t = kTypes[rng.pick_index(6)];
    const int arity = t == gl::GateType::kNot   ? 1
                      : t == gl::GateType::kXor ? 2
                                                : 2 + static_cast<int>(
                                                          rng.pick_index(3));
    std::vector<int> fanins;
    for (int a = 0; a < arity; ++a)
      fanins.push_back(nodes[rng.pick_index(nodes.size())]);
    nodes.push_back(n.add_gate(t, fanins));
  }
  for (int i = 0; i < 24; ++i) n.mark_output(nodes[nodes.size() - 1 - i]);
  return n;
}

TEST(Pipeline, ShipCoverageEqualsFromScratchGrade) {
  // pattern_coverage and the compact.ship ledger phase are derived from
  // the pruning matrix and the top-up cover, with only the residual faults
  // graded. A from-scratch drop-mode grade of the shipped set (serial, 64
  // lanes) must agree with both exactly.
  struct Case {
    std::string name;
    Netlist n;
    long backtrack_limit = 10000;
  };
  std::vector<Case> cases;
  cases.push_back({"diffeq_w4", full_scan_netlist(cdfg::diffeq(), 4)});
  cases.push_back({"tseng_w4", full_scan_netlist(cdfg::tseng(), 4)});
  cases.push_back({"iir_w4", full_scan_netlist(cdfg::iir_biquad(), 4)});
  cases.push_back({"fir6_w4", full_scan_netlist(cdfg::fir(6), 4)});
  cases.push_back({"dct4_w4", full_scan_netlist(cdfg::dct4(), 4)});
  cases.push_back({"diffeq_w8", full_scan_netlist(cdfg::diffeq(), 8)});
  // One backtrack aborts faults the campaign never detects, so the
  // residual grade has work to do.
  cases.push_back({"diffeq_w4_bt1", full_scan_netlist(cdfg::diffeq(), 4), 1});
  // The benchmark designs merge into one block of patterns and prune
  // none; these two reach a kept pattern's rank across blocks and past
  // pruned patterns.
  cases.push_back({"decoder", decoder_netlist()});
  cases.push_back({"random_logic", random_logic(4)});
  gl::FaultSimOptions serial;
  serial.num_threads = 1;
  serial.lanes = 64;
  bool kept_spans_blocks = false;
  bool pruned = false;
  for (const Case& c : cases) {
    const auto faults = gl::enumerate_faults(c.n);
    for (XFill fill :
         {XFill::kRandom, XFill::kZero, XFill::kOne, XFill::kAdjacent}) {
      const std::string label =
          c.name + " fill " + std::to_string(static_cast<int>(fill));
      CompactionOptions copts;
      copts.mode = CompactMode::kStatic;
      copts.xfill = fill;
      observe::ledger_reset();
      observe::ledger_enable();
      const CompactedCampaign comp =
          run_compacted_atpg(c.n, faults, copts, c.backtrack_limit);
      double oracle = 0;
      {
        observe::LedgerPhase phase("oracle.ship");
        oracle = gl::fault_coverage(c.n, patterns_to_blocks(comp.patterns),
                                    faults, nullptr, serial);
      }
      observe::ledger_disable();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(comp.pattern_coverage),
                std::bit_cast<std::uint64_t>(oracle))
          << label << ": " << comp.pattern_coverage << " vs " << oracle;
#ifndef TSYN_LEDGER_NOOP
      const observe::LedgerSnapshot snap = observe::ledger_snapshot();
      const std::vector<std::int64_t> ship = waterfall_of(snap, "compact.ship");
      EXPECT_FALSE(ship.empty()) << label;
      EXPECT_EQ(ship, waterfall_of(snap, "oracle.ship")) << label;
#endif
      observe::ledger_reset();
      if (c.backtrack_limit == 1) {
        EXPECT_GT(static_residual(c.n, faults, comp), 0) << label;
      }
      const long kept = static_cast<long>(comp.patterns.size()) -
                        comp.stats.topup_patterns;
      kept_spans_blocks |= kept > 64 && comp.stats.topup_patterns > 0;
      pruned |= comp.stats.patterns_pruned > 0;
    }
  }
  EXPECT_TRUE(kept_spans_blocks);
  EXPECT_TRUE(pruned);
}

// ---- byte identity ----

void fold_campaign(util::Fnv1a& h, const CompactedCampaign& c) {
  h.u64(c.patterns.size());
  for (const TestCube& p : c.patterns)
    for (V v : p) h.i64(static_cast<int>(v));
  const CompactionStats& s = c.stats;
  h.i64(s.cubes_generated).i64(s.cubes_after_merge);
  h.i64(s.patterns_pruned).i64(s.topup_patterns);
  h.u64(std::bit_cast<std::uint64_t>(c.pattern_coverage));
}

TEST(Pipeline, CompactedCampaignIsDigestPinned) {
  // Every shipped pattern (top-up picks included), every stage count and
  // the shipped coverage of the compacting mode, then the fault ledger of
  // the report flow. Grading may change how it computes detections,
  // never which, so the first constant must not move. The ledger also
  // records simulation effort, which moves with the engine's lane width.
  const Netlist n = full_scan_netlist(cdfg::diffeq(), 4);
  const auto faults = gl::enumerate_faults(n);
  util::Fnv1a h;
  CompactionOptions copts;
  copts.mode = CompactMode::kStatic;
  {
    const CompactedCampaign c = run_compacted_atpg(n, faults, copts);
    EXPECT_GT(c.stats.topup_patterns, 0);
    fold_campaign(h, c);
  }
  EXPECT_EQ(h.value(), 0x6df531679ac1a75aULL);

#ifndef TSYN_LEDGER_NOOP
  observe::ledger_reset();
  observe::ledger_enable();
  const CompactedCampaign c = run_compacted_atpg(n, faults, copts);
  {
    observe::LedgerPhase phase("ship.ndetect");
    (void)detection_matrix(n, c.patterns, faults);
  }
  observe::ledger_disable();
  const std::string json = observe::ledger_to_json();
  observe::ledger_reset();
  // The no-drop matrices grade at 512 lanes from two blocks up, so the
  // top-up's per-fault sim_events differ from a 64-lane run; every other
  // ledger field is width-independent. compact.ship derives its detections
  // and propagates only the residual faults, so its sim_events are theirs.
  EXPECT_EQ(util::fnv1a(json), 0xec424ec4b367b1f8ULL);
#endif
}

}  // namespace
}  // namespace tsyn::compaction
