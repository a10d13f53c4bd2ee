// The compiled SoA simulation core: SimGraph lowering must mirror the
// Netlist exactly, the levelized engines must match a direct reference
// evaluation bit for bit, 512-lane grading must reproduce serial
// 64-lane grading — detected set AND first-detecting pattern — every lane
// width must match the Netlist-walking full re-simulation oracle lane by
// lane, and the work-stealing shard must be invisible in every result,
// ledger JSON included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <set>
#include <string>
#include <vector>

#include "gatelevel/bistgen.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/faultsim_wide.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"
#include "gatelevel/widebits.h"
#include "observe/ledger.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsyn {
namespace {

// Random combinational netlist (the same shape the property sweeps use).
gl::Netlist random_netlist(std::uint64_t seed, int gates = 80,
                           int inputs = 8) {
  util::Rng rng(seed);
  gl::Netlist n;
  std::vector<int> nodes;
  for (int i = 0; i < inputs; ++i)
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  for (int i = 0; i < gates; ++i) {
    static constexpr gl::GateType kTypes[] = {
        gl::GateType::kAnd,  gl::GateType::kOr,  gl::GateType::kNand,
        gl::GateType::kNor,  gl::GateType::kXor, gl::GateType::kXnor,
        gl::GateType::kNot,  gl::GateType::kMux};
    const gl::GateType t = kTypes[rng.pick_index(8)];
    const int arity = t == gl::GateType::kNot   ? 1
                      : t == gl::GateType::kMux ? 3
                                                : 2;
    std::vector<int> fanins;
    for (int a = 0; a < arity; ++a)
      fanins.push_back(nodes[rng.pick_index(nodes.size())]);
    nodes.push_back(n.add_gate(t, fanins));
  }
  for (int i = 0; i < 6; ++i)
    n.mark_output(nodes[nodes.size() - 1 - i]);
  n.validate();
  return n;
}

// Direct Netlist-walking frame evaluation — the shape simulate_frame had
// before the SoA port, kept here as the equivalence oracle.
void reference_frame(const gl::Netlist& n, std::vector<gl::Bits>& values) {
  gl::Bits fanin_vals[gl::kMaxFanin];
  for (int id : n.topo_order()) {
    const gl::Node& node = n.node(id);
    if (node.type == gl::GateType::kInput || node.type == gl::GateType::kDff)
      continue;
    for (std::size_t i = 0; i < node.fanins.size(); ++i)
      fanin_vals[i] = values[node.fanins[i]];
    values[id] = gl::eval_gate(node.type, fanin_vals,
                               static_cast<int>(node.fanins.size()));
  }
}

std::vector<gl::Bits> random_pi_values(const gl::Netlist& n,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<gl::Bits> vals(n.num_nodes(), gl::Bits::unknown());
  for (int pi : n.primary_inputs()) {
    gl::Bits b;
    b.v = rng.next_u64();
    b.x = (rng.next_u64() & rng.next_u64() & rng.next_u64());  // sparse unknowns
    b.v &= ~b.x;
    vals[pi] = b;
  }
  return vals;
}

TEST(SimGraph, LoweringMirrorsNetlist) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const gl::Netlist n = random_netlist(seed, 120, 10);
    const gl::SimGraph& g = gl::SimGraph::of(n);
    ASSERT_EQ(g.num_nodes(), n.num_nodes());

    std::set<int> order_seen;
    for (int pos = 0; pos < g.num_nodes(); ++pos) {
      const int id = g.order()[pos];
      EXPECT_TRUE(order_seen.insert(id).second);
      EXPECT_EQ(g.pos_of()[id], pos);
    }

    for (int id = 0; id < n.num_nodes(); ++id) {
      const gl::Node& node = n.node(id);
      EXPECT_EQ(g.type(id), node.type);
      ASSERT_EQ(g.num_fanins(id), static_cast<int>(node.fanins.size()));
      for (int i = 0; i < g.num_fanins(id); ++i)
        EXPECT_EQ(g.fanin()[g.fanin_off()[id] + i], node.fanins[i]);

      // Levelization: sources at 0, gates one past their deepest fanin.
      if (node.type == gl::GateType::kInput ||
          node.type == gl::GateType::kDff || node.fanins.empty()) {
        EXPECT_EQ(g.level_of()[id], 0);
      } else {
        int expect = 0;
        for (int f : node.fanins)
          expect = std::max(expect, g.level_of()[f] + 1);
        EXPECT_EQ(g.level_of()[id], expect);
      }
      const int lvl = g.level_of()[id];
      EXPECT_GE(g.pos_of()[id], g.level_off()[lvl]);
      EXPECT_LT(g.pos_of()[id], g.level_off()[lvl + 1]);

      // Fanout CSR: comb edges only, strictly deeper levels.
      for (int k = g.fanout_off()[id]; k < g.fanout_off()[id + 1]; ++k) {
        const int s = g.fanout()[k];
        EXPECT_NE(g.type(s), gl::GateType::kDff);
        EXPECT_GT(g.level_of()[s], g.level_of()[id]);
        bool consumes = false;
        for (int f : n.node(s).fanins) consumes |= (f == id);
        EXPECT_TRUE(consumes);
      }
    }

    // Edge totals: every comb pin appears exactly once in the fanout CSR.
    int comb_pins = 0;
    for (int id = 0; id < n.num_nodes(); ++id)
      if (n.node(id).type != gl::GateType::kDff)
        comb_pins += static_cast<int>(n.node(id).fanins.size());
    EXPECT_EQ(g.fanout_off()[n.num_nodes()], comb_pins);
  }
}

TEST(SimGraph, SimulateFrameMatchesReference) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL}) {
    const gl::Netlist n = random_netlist(seed, 150, 12);
    for (std::uint64_t vs = 0; vs < 4; ++vs) {
      std::vector<gl::Bits> got = random_pi_values(n, seed * 977 + vs);
      std::vector<gl::Bits> want = got;
      gl::simulate_frame(n, got);
      reference_frame(n, want);
      for (int id = 0; id < n.num_nodes(); ++id) {
        EXPECT_EQ(got[id].v, want[id].v) << "node " << id;
        EXPECT_EQ(got[id].x, want[id].x) << "node " << id;
      }
    }
  }
}

TEST(SimGraph, CacheRebuildsAfterStructuralEdit) {
  gl::Netlist n = random_netlist(31, 60, 8);
  const gl::SimGraph* first = &gl::SimGraph::of(n);
  EXPECT_EQ(first, &gl::SimGraph::of(n));  // cached, not rebuilt

  const int before = n.num_nodes();
  const int g0 = n.primary_inputs()[0];
  const int g1 = n.primary_inputs()[1];
  const int added = n.add_gate(gl::GateType::kXor, {g0, g1});
  n.mark_output(added);
  const gl::SimGraph& rebuilt = gl::SimGraph::of(n);
  EXPECT_GT(rebuilt.num_nodes(), before);
  EXPECT_EQ(rebuilt.num_nodes(), n.num_nodes());

  // And the rebuilt graph still simulates correctly.
  std::vector<gl::Bits> got = random_pi_values(n, 77);
  std::vector<gl::Bits> want = got;
  gl::simulate_frame(n, got);
  reference_frame(n, want);
  for (int id = 0; id < n.num_nodes(); ++id) {
    EXPECT_EQ(got[id].v, want[id].v);
    EXPECT_EQ(got[id].x, want[id].x);
  }
}

// Wide grading must reproduce serial 64-lane grading exactly: the same
// detected set and the same first-detecting pattern, including campaigns
// whose block count does not divide the super-block width (padding lanes).
TEST(SimGraph, WideCoverageMatchesSerial64) {
  for (std::uint64_t seed : {41ULL, 42ULL}) {
    const gl::Netlist n = random_netlist(seed, 160, 10);
    const auto faults = gl::enumerate_faults(n);
    for (int nblocks : {1, 3, 8, 9}) {  // 1, 3, 9: pad the W=8 row
      const auto blocks = gl::lfsr_pattern_blocks(
          static_cast<int>(n.primary_inputs().size()), nblocks, seed);
      gl::FaultSimOptions serial;
      serial.num_threads = 1;
      std::vector<bool> det64;
      const double cov64 = gl::fault_coverage(n, blocks, faults, &det64,
                                              serial);
      gl::FaultSimOptions wide = serial;
      wide.lanes = 512;
      std::vector<bool> detw;
      const double covw = gl::fault_coverage(n, blocks, faults, &detw, wide);
      EXPECT_EQ(covw, cov64);
      EXPECT_EQ(detw, det64);
    }
  }
}

TEST(SimGraph, WideFirstDetectionPatternsMatchSerial64) {
  const gl::Netlist n = random_netlist(43, 160, 10);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 6, 43);

  auto first_detects = [&](int lanes) {
    observe::ledger_reset();
    observe::ledger_enable();
    gl::FaultSimOptions o;
    o.num_threads = 1;
    o.lanes = lanes;
    gl::fault_coverage(n, blocks, faults, nullptr, o);
    observe::ledger_disable();
    const observe::LedgerSnapshot snap = observe::ledger_snapshot();
    observe::ledger_reset();
    std::vector<std::int64_t> firsts;
    for (const auto& j : snap.journeys)
      firsts.push_back(j.first_detect_pattern);
    return firsts;
  };
  const auto serial = first_detects(64);
  EXPECT_EQ(first_detects(512), serial);
}

TEST(SimGraph, WideDetectionMasksMatchSerial64) {
  const gl::Netlist n = random_netlist(44, 140, 9);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 5, 44);
  gl::FaultSimOptions o;
  o.num_threads = 1;
  std::vector<std::uint64_t> m64;
  gl::detection_masks(n, blocks, faults, m64, o);
  ASSERT_EQ(m64.size(), faults.size() * blocks.size());
  gl::FaultSimOptions wide = o;
  wide.lanes = 512;
  std::vector<std::uint64_t> mw;
  gl::detection_masks(n, blocks, faults, mw, wide);
  EXPECT_EQ(mw, m64);
}

// TSYN_FORCE_SCALAR must not change any result — on SIMD builds this is
// the scalar-vs-vector differential; on scalar builds it proves the
// override path is at least wired through.
TEST(SimGraph, ForcedScalarBackendIsBitIdentical) {
  const gl::Netlist n = random_netlist(45, 150, 10);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 8, 45);
  gl::FaultSimOptions o;
  o.num_threads = 1;
  o.lanes = 512;
  std::vector<std::uint64_t> native;
  gl::detection_masks(n, blocks, faults, native, o);

  ::setenv("TSYN_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(gl::active_simd_backend(), gl::SimdBackend::kScalar);
  std::vector<std::uint64_t> scalar;
  gl::detection_masks(n, blocks, faults, scalar, o);
  ::unsetenv("TSYN_FORCE_SCALAR");

  EXPECT_EQ(scalar, native);
}

// The work-stealing shard must be invisible: coverage, detected set, and
// the ledger JSON byte-identical at every thread count, at 64 and 512
// lanes.
TEST(SimGraph, ThreadCountInvarianceIncludingLedger) {
  const gl::Netlist n = random_netlist(46, 160, 10);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 4, 46);

  for (int lanes : {64, 512}) {
    std::string base_json;
    std::vector<bool> base_det;
    for (int threads : {1, 2, 8}) {
      gl::FaultSimOptions o;
      o.num_threads = threads;
      o.lanes = lanes;
      observe::ledger_reset();
      observe::ledger_enable();
      std::vector<bool> det;
      gl::fault_coverage(n, blocks, faults, &det, o);
      observe::ledger_disable();
      const std::string json = observe::ledger_to_json();
      observe::ledger_reset();
      if (threads == 1) {
        base_json = json;
        base_det = det;
      } else {
        EXPECT_EQ(det, base_det) << "lanes " << lanes << " threads "
                                 << threads;
        EXPECT_EQ(json, base_json) << "lanes " << lanes << " threads "
                                   << threads;
      }
    }
  }
}

// Ledger byte identity pinned across engine rewrites: a drop-mode
// coverage campaign followed by a detection matrix at 64 lanes must
// produce exactly this ledger JSON (by FNV-1a digest) at any thread count.
// A change to the digest is a change to the recorded effort or detection
// attribution, never a refactoring detail. Without recording there is no
// ledger to pin.
#ifndef TSYN_LEDGER_NOOP
TEST(SimGraph, Lanes64LedgerDigestIsPinned) {
  const gl::Netlist n = random_netlist(46, 160, 10);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 4, 46);
  for (int threads : {1, 4}) {
    gl::FaultSimOptions o;
    o.num_threads = threads;
    o.lanes = 64;
    observe::ledger_reset();
    observe::ledger_enable();
    gl::fault_coverage(n, blocks, faults, nullptr, o);
    std::vector<std::uint64_t> masks;
    gl::detection_masks(n, blocks, faults, masks, o);
    observe::ledger_disable();
    const std::string json = observe::ledger_to_json();
    observe::ledger_reset();
    EXPECT_EQ(util::fnv1a(json), 0x680e1254f1cb45c0ULL) << "threads " << threads;
  }
}
#endif  // TSYN_LEDGER_NOOP

// Independent oracle for the lane masks: every lane of every block is
// replayed through the Netlist-walking full re-simulation as its own
// single frame (each PI broadcast from that lane's bit), so a defect
// shared by every lane width of the propagation template cannot hide
// behind width-vs-width comparisons. Sparse unknown PI lanes exercise the
// three-valued detection rule too.
TEST(SimGraph, DetectionMasksMatchFullResimOraclePerLane) {
  const gl::Netlist n = random_netlist(48, 80, 8);
  const auto faults = gl::enumerate_faults(n);
  auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 2, 48);
  util::Rng rng(48);
  for (auto& block : blocks)
    for (gl::Bits& pi : block) {
      pi.x = rng.next_u64() & rng.next_u64() & rng.next_u64();
      pi.v &= ~pi.x;
    }
  const std::size_t nb = blocks.size();

  std::vector<std::uint64_t> oracle(faults.size() * nb, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    for (int lane = 0; lane < 64; ++lane) {
      std::vector<gl::Bits> frame;
      for (const gl::Bits& pi : blocks[b]) {
        const bool x = (pi.x >> lane) & 1;
        const bool v = (pi.v >> lane) & 1;
        frame.push_back(x   ? gl::Bits::unknown()
                        : v ? gl::Bits::all1()
                            : gl::Bits::all0());
      }
      const std::vector<bool> det =
          gl::sequential_fault_sim_full_resim(n, {frame}, faults);
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (det[i]) oracle[i * nb + b] |= 1ULL << lane;
    }
  }
  ASSERT_NE(std::count(oracle.begin(), oracle.end(), 0ULL),
            static_cast<std::ptrdiff_t>(oracle.size()));

  for (int lanes : {64, 512}) {
    gl::FaultSimOptions o;
    o.num_threads = 1;
    o.lanes = lanes;
    std::vector<std::uint64_t> masks;
    gl::detection_masks(n, blocks, faults, masks, o);
    ASSERT_EQ(masks.size(), oracle.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      for (std::size_t b = 0; b < nb; ++b)
        EXPECT_EQ(masks[i * nb + b], oracle[i * nb + b])
            << "lanes " << lanes << " fault " << gl::describe(n, faults[i])
            << " block " << b;
  }
}

// run_chunked: every index exactly once, slot ids in range, exceptions
// rethrown — across chunk sizes that do and don't divide the range.
TEST(ThreadPool, RunChunkedCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  for (int count : {1, 7, 64, 1000}) {
    for (int chunk : {1, 3, 16, 2000}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h.store(0);
      pool.run_chunked(count, 4, chunk, [&](int i, int slot) {
        ASSERT_GE(i, 0);
        ASSERT_LT(i, count);
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, 4);
        hits[i].fetch_add(1);
      });
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "count " << count << " chunk "
                                     << chunk << " index " << i;
    }
  }
}

TEST(ThreadPool, RunChunkedRethrowsJobExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunked(100, 4, 8,
                                [&](int i, int) {
                                  if (i == 37) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

// The per-fault effort attribution the ledger reads (last_events) must be
// cleared together with the totals, or the first fault after a metrics
// publish inherits the previous pass's attribution. Checked on a two-gate
// netlist and a random one. The propagator is instantiated here with the
// same portable flags and backend as in faultsim.cpp.
TEST(WideProp, ResetClearsAllThreeWorkCounters) {
  using Words = gl::ScalarWords<1>;
  const gl::Netlist small = [] {
    gl::Netlist n;
    const int a = n.add_input("a");
    const int b = n.add_input("b");
    const int g = n.add_gate(gl::GateType::kAnd, {a, b});
    n.mark_output(n.add_gate(gl::GateType::kXor, {g, b}));
    n.validate();
    return n;
  }();
  const gl::Netlist random = random_netlist(47, 80, 8);

  for (const gl::Netlist* n : {&small, &random}) {
    const gl::SimGraph& g = gl::SimGraph::of(*n);
    const auto faults = gl::enumerate_faults(*n);
    ASSERT_FALSE(faults.empty());
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n->primary_inputs().size()), 1, 47);
    gl::wide_detail::WideGood<1> good;
    gl::wide_detail::wide_set_inputs<1, Words>(g, blocks, good);
    gl::wide_detail::wide_simulate_good<1, Words>(g, good);

    gl::wide_detail::WideProp<1, Words> prop(g);
    std::uint64_t mask = 0;
    long propagated = 0;
    for (const auto& f : faults) {
      prop.propagate(f, good, &mask);
      ++propagated;
      if (prop.last_events() > 0) break;
    }
    ASSERT_GT(prop.last_events(), 0);
    EXPECT_GE(prop.events(), prop.last_events());
    EXPECT_EQ(prop.faults(), propagated);
    prop.reset_work_counters();
    EXPECT_EQ(prop.events(), 0);
    EXPECT_EQ(prop.faults(), 0);
    EXPECT_EQ(prop.last_events(), 0);
  }
}

}  // namespace
}  // namespace tsyn
