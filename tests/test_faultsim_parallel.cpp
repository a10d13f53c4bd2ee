// The multi-threaded fault-simulation engine: the sharded PPSFP path must
// be indistinguishable from the serial one, the sequential simulator must
// match the full-resimulation oracle, and repeated multi-threaded runs
// (ledger included) must be deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "cdfg/benchmarks.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/metrics.h"
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

// Random sequential netlist: a combinational soup plus DFFs, some of them
// in feedback loops, with a mix of DFF and gate primary outputs.
gl::Netlist random_sequential_netlist(std::uint64_t seed, int gates = 60,
                                      int flops = 6) {
  util::Rng rng(seed);
  gl::Netlist n;
  std::vector<int> nodes;
  for (int i = 0; i < 4; ++i)
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  std::vector<int> dffs;
  for (int i = 0; i < flops; ++i) {
    const int q = n.add_dff(-1, "q" + std::to_string(i));
    dffs.push_back(q);
    nodes.push_back(q);  // Q feeds downstream logic (feedback possible)
  }
  for (int i = 0; i < gates; ++i) {
    static constexpr gl::GateType kTypes[] = {
        gl::GateType::kAnd, gl::GateType::kOr,  gl::GateType::kNand,
        gl::GateType::kNor, gl::GateType::kXor, gl::GateType::kNot,
        gl::GateType::kMux};
    const gl::GateType t = kTypes[rng.pick_index(7)];
    const int arity = t == gl::GateType::kNot   ? 1
                      : t == gl::GateType::kMux ? 3
                                                : 2;
    std::vector<int> fanins;
    for (int a = 0; a < arity; ++a)
      fanins.push_back(nodes[rng.pick_index(nodes.size())]);
    nodes.push_back(n.add_gate(t, fanins));
  }
  for (int i = 0; i < flops; ++i)
    n.set_dff_input(dffs[i], nodes[rng.pick_index(nodes.size())]);
  for (int i = 0; i < 3; ++i)
    n.mark_output(nodes[nodes.size() - 1 - i]);
  n.mark_output(dffs[0]);  // a DFF PO, like the seq-ATPG ring circuits
  n.validate();
  return n;
}

/// Ring register circuit from bench_seqatpg_effort.
gl::Netlist ring_circuit(int length) {
  gl::Netlist n;
  const int load = n.add_input("load");
  const int din = n.add_input("din");
  std::vector<int> regs;
  for (int i = 0; i < length; ++i)
    regs.push_back(n.add_dff(-1, "r" + std::to_string(i)));
  const int inv = n.add_gate(gl::GateType::kNot, {regs[length - 1]});
  const int d0 = n.add_gate(gl::GateType::kMux, {load, inv, din});
  n.set_dff_input(regs[0], d0);
  for (int i = 1; i < length; ++i) n.set_dff_input(regs[i], regs[i - 1]);
  n.mark_output(regs[0]);
  return n;
}

/// Register pipeline from bench_seqatpg_effort.
gl::Netlist pipeline_circuit(int depth) {
  gl::Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int x = n.add_gate(gl::GateType::kXor, {a, b});
  int prev = x;
  for (int i = 0; i < depth; ++i) {
    const int q = n.add_dff(-1, "d" + std::to_string(i));
    n.set_dff_input(q, prev);
    prev = q;
  }
  n.mark_output(prev);
  return n;
}

class ParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSweep, RunBlockMatchesSerial) {
  const gl::Netlist n = random_netlist(GetParam());
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 3, GetParam() * 17 + 1);

  gl::FaultSimulator serial(n, gl::FaultSimOptions{1});
  gl::FaultSimulator parallel(n, gl::FaultSimOptions{4});
  std::vector<bool> ds(faults.size(), false), dp(faults.size(), false);
  for (const auto& block : blocks) {
    const int news = serial.run_block(block, faults, ds);
    const int newp = parallel.run_block(block, faults, dp);
    EXPECT_EQ(news, newp);
    EXPECT_EQ(serial.good_outputs().size(), parallel.good_outputs().size());
  }
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(ds[i], dp[i]) << gl::describe(n, faults[i]);
}

TEST_P(ParallelSweep, RunBlockDetailMatchesSerial) {
  const gl::Netlist n = random_netlist(GetParam(), 60);
  const auto faults = gl::enumerate_faults(n, /*collapse=*/false);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 2, GetParam() * 3 + 7);

  gl::FaultSimulator serial(n, gl::FaultSimOptions{1});
  gl::FaultSimulator parallel(n, gl::FaultSimOptions{4});
  std::vector<std::uint64_t> ms, mp;
  for (const auto& block : blocks) {
    serial.run_block_detail(block, faults, ms);
    parallel.run_block_detail(block, faults, mp);
    ASSERT_EQ(ms.size(), mp.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      EXPECT_EQ(ms[i], mp[i]) << gl::describe(n, faults[i]);
    // The good machine is unaffected by the sharding.
    for (int id = 0; id < n.num_nodes(); ++id) {
      EXPECT_EQ(serial.good_value(id).v, parallel.good_value(id).v);
      EXPECT_EQ(serial.good_value(id).x, parallel.good_value(id).x);
    }
  }
}

TEST_P(ParallelSweep, SequentialMatchesFullResim) {
  const gl::Netlist n = random_sequential_netlist(GetParam());
  const auto faults = gl::enumerate_faults(n);
  const auto frames = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 6, GetParam() * 5 + 11);

  const auto oracle = gl::sequential_fault_sim_full_resim(n, frames, faults);
  const auto serial =
      gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{1});
  const auto parallel =
      gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{4});
  ASSERT_EQ(oracle.size(), serial.size());
  ASSERT_EQ(oracle.size(), parallel.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(oracle[i], serial[i]) << gl::describe(n, faults[i]);
    EXPECT_EQ(oracle[i], parallel[i]) << gl::describe(n, faults[i]);
  }
}

TEST_P(ParallelSweep, FaultCoverageDeterministicAcrossRuns) {
  const gl::Netlist n = random_netlist(GetParam(), 100);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 4, 5);

  gl::FaultSimOptions opts;
  opts.num_threads = 4;
  std::vector<bool> first;
  const double cov0 = gl::fault_coverage(n, blocks, faults, &first, opts);
  for (int run = 0; run < 3; ++run) {
    std::vector<bool> detected;
    const double cov = gl::fault_coverage(n, blocks, faults, &detected, opts);
    EXPECT_EQ(cov, cov0);
    EXPECT_EQ(detected, first);
  }
  // And the serial engine agrees with the default (hardware) engine.
  EXPECT_EQ(gl::fault_coverage(n, blocks, faults, nullptr,
                               gl::FaultSimOptions{1}),
            cov0);
  EXPECT_EQ(gl::fault_coverage(n, blocks, faults), cov0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweep, ::testing::Range(1, 11));

TEST(SequentialFaultSim, MatchesOracleOnSeqAtpgEffortCircuits) {
  // The bench_seqatpg_effort workloads: rings (long S-graph cycles, DFF
  // primary output) and pipelines (pure depth).
  for (int length = 1; length <= 6; ++length) {
    const gl::Netlist n = ring_circuit(length);
    const auto faults = gl::enumerate_faults(n);
    const auto frames = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), length + 4, 0xC0FFEE);
    EXPECT_EQ(gl::sequential_fault_sim(n, frames, faults),
              gl::sequential_fault_sim_full_resim(n, frames, faults))
        << "ring length " << length;
  }
  for (int depth = 1; depth <= 8; ++depth) {
    const gl::Netlist n = pipeline_circuit(depth);
    const auto faults = gl::enumerate_faults(n);
    const auto frames = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), depth + 3, 0xBEEF);
    EXPECT_EQ(gl::sequential_fault_sim(n, frames, faults),
              gl::sequential_fault_sim_full_resim(n, frames, faults))
        << "pipeline depth " << depth;
  }
}

TEST_P(ParallelSweep, SequentialMatchesFullResimOnRaggedAndEmptyFrames) {
  // Frames with fewer values than PIs (the missing inputs read as X), and
  // no frames at all (nothing can be detected).
  const gl::Netlist n = random_sequential_netlist(GetParam());
  const auto faults = gl::enumerate_faults(n);
  auto ragged = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 6, GetParam() * 7 + 3);
  for (std::size_t f = 0; f < ragged.size(); ++f)
    ragged[f].resize(f % n.primary_inputs().size());
  std::vector<std::vector<gl::Bits>> empty;
  ASSERT_EQ(gl::sequential_fault_sim_full_resim(n, empty, faults),
            std::vector<bool>(faults.size(), false));

  for (const auto* frames : {&ragged, &empty}) {
    const auto oracle =
        gl::sequential_fault_sim_full_resim(n, *frames, faults);
    EXPECT_EQ(oracle, gl::sequential_fault_sim(n, *frames, faults,
                                              gl::FaultSimOptions{1}));
    EXPECT_EQ(oracle, gl::sequential_fault_sim(n, *frames, faults,
                                              gl::FaultSimOptions{4}));
  }
}

TEST(SequentialFaultSim, LedgerIdenticalAcrossThreadCounts) {
  const gl::Netlist n = random_sequential_netlist(29, 120, 10);
  const auto faults = gl::enumerate_faults(n);
  const auto frames = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 12, 29);

  std::string base_json;
  std::vector<bool> base_det;
  for (int threads : {1, 2, 8}) {
    observe::ledger_reset();
    observe::ledger_enable();
    const auto det = gl::sequential_fault_sim(n, frames, faults,
                                              gl::FaultSimOptions{threads});
    observe::ledger_disable();
    const std::string json = observe::ledger_to_json();
    observe::ledger_reset();
    if (threads == 1) {
      base_json = json;
      base_det = det;
      EXPECT_NE(std::count(det.begin(), det.end(), true), 0);
    } else {
      EXPECT_EQ(det, base_det) << "threads " << threads;
      EXPECT_EQ(json, base_json) << "threads " << threads;
    }
  }
}

TEST(SequentialFaultSim, DropsDetectedFaultEarly) {
  // A buffer pipeline: an output SA fault is caught as soon as the effect
  // marches to the PO; later frames must not resurrect it.
  const gl::Netlist n = pipeline_circuit(3);
  const gl::Fault f{n.flops()[0], -1, true};  // first stage stuck-at-1
  std::vector<std::vector<gl::Bits>> frames(
      8, std::vector<gl::Bits>{gl::Bits::all0(), gl::Bits::all0()});
  const auto det = gl::sequential_fault_sim(n, frames, {f});
  EXPECT_TRUE(det[0]);
  EXPECT_EQ(det, gl::sequential_fault_sim_full_resim(n, frames, {f}));
}

/// diffeq through the default synthesis flow with MFVS partial scan,
/// expanded at `width`: a still-sequential netlist like the partial_scan
/// benchmark's.
gl::Netlist mfvs_diffeq(int width) {
  const cdfg::Cdfg g = cdfg::diffeq();
  const hls::Synthesis syn = hls::synthesize(g);
  rtl::Datapath dp = syn.rtl.datapath;
  testability::apply_scan(g, syn.binding,
                          testability::select_scan_vars_mfvs(g), dp);
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(dp, x).netlist;
}

/// Uncollapsed faults of `n` in round-robin over four kinds, so every
/// prefix of a few faults mixes them: PI output faults, DFF output
/// faults, DFF pin faults and gate pin faults on fanout branches.
std::vector<gl::Fault> mixed_faults(const gl::Netlist& n) {
  const auto& fanouts = n.fanouts();
  std::vector<gl::Fault> kinds[4];
  for (const gl::Fault& f : gl::enumerate_faults(n, /*collapse=*/false)) {
    const gl::GateType t = n.node(f.node).type;
    if (f.fanin_index < 0 && t == gl::GateType::kInput)
      kinds[0].push_back(f);
    else if (f.fanin_index < 0 && t == gl::GateType::kDff)
      kinds[1].push_back(f);
    else if (t == gl::GateType::kDff)
      kinds[2].push_back(f);
    else if (f.fanin_index >= 0 &&
             fanouts[n.node(f.node).fanins[f.fanin_index]].size() > 1)
      kinds[3].push_back(f);
  }
  std::vector<gl::Fault> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& k : kinds)
      if (i < k.size()) {
        out.push_back(k[i]);
        any = true;
      }
    if (!any) return out;
  }
}

/// Frame lists the slot engine must treat alike: LFSR sequences, ragged
/// frames (missing PIs read X) and a short lane-identical sequence like
/// the ATPG drop calls'.
std::vector<std::vector<std::vector<gl::Bits>>> frame_shapes(
    const gl::Netlist& n, std::uint64_t seed) {
  const int npi = static_cast<int>(n.primary_inputs().size());
  auto lfsr = gl::lfsr_pattern_blocks(npi, 10, seed);
  auto ragged = gl::lfsr_pattern_blocks(npi, 9, seed + 1);
  for (std::size_t f = 0; f < ragged.size(); ++f)
    ragged[f].resize(f % static_cast<std::size_t>(npi));
  util::Rng rng(seed);
  std::vector<std::vector<gl::Bits>> identical(
      3, std::vector<gl::Bits>(static_cast<std::size_t>(npi)));
  for (auto& frame : identical)
    for (gl::Bits& b : frame)
      b = rng.next_u64() & 1 ? gl::Bits::all1() : gl::Bits::all0();
  return {lfsr, ragged, identical};
}

TEST(SequentialFaultSim, SlotFillMatchesOracleAtEveryListSize) {
  // Lists shorter than, equal to and just past the 8 fault slots, so
  // empty slots, exact fills and refills all occur.
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    const gl::Netlist n = random_sequential_netlist(seed, 60, 6);
    const std::vector<gl::Fault> all = mixed_faults(n);
    ASSERT_GE(all.size(), 17u);
    for (const auto& frames : frame_shapes(n, seed)) {
      for (const std::size_t size : {0, 1, 7, 8, 9, 17}) {
        const std::vector<gl::Fault> faults(all.begin(),
                                            all.begin() + size);
        const auto oracle =
            gl::sequential_fault_sim_full_resim(n, frames, faults);
        for (const int threads : {1, 2, 8})
          EXPECT_EQ(oracle, gl::sequential_fault_sim(
                                n, frames, faults,
                                gl::FaultSimOptions{threads}))
              << "seed " << seed << " size " << size << " threads "
              << threads << " frames " << frames.size();
      }
    }
  }
}

#ifndef TSYN_LEDGER_NOOP
/// The detected mask plus every journey's first detecting frame, as
/// recorded by one ledger-enabled sequential_fault_sim call.
std::uint64_t seq_detect_digest(const gl::Netlist& n,
                                const std::vector<std::vector<gl::Bits>>& frames,
                                const std::vector<gl::Fault>& faults,
                                int threads) {
  observe::ledger_reset();
  observe::ledger_enable();
  const auto det =
      gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{threads});
  observe::ledger_disable();
  const observe::LedgerSnapshot snap = observe::ledger_snapshot();
  observe::ledger_reset();
  util::Fnv1a h;
  for (const bool d : det) h.i64(d);
  for (const observe::FaultJourney& j : snap.journeys)
    h.i64(j.key.node).i64(j.key.pin).i64(j.key.sa1).i64(j.first_detect_frame);
  return h.value();
}

TEST(SequentialFaultSim, DetectFramesDigestIsPinned) {
  // Which faults are detected and at which frame must not depend on how
  // the engine packs faulty machines, nor on the thread count.
  const gl::Netlist rnd = random_sequential_netlist(29, 120, 10);
  const auto rnd_frames = gl::lfsr_pattern_blocks(
      static_cast<int>(rnd.primary_inputs().size()), 12, 29);
  const gl::Netlist dfq = mfvs_diffeq(4);
  const auto dfq_frames = gl::lfsr_pattern_blocks(
      static_cast<int>(dfq.primary_inputs().size()), 48, 0x5E0 | 1);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(seq_detect_digest(rnd, rnd_frames, gl::enumerate_faults(rnd),
                                threads),
              0x5fd1fd878a8d3806ULL)
        << "random, threads " << threads;
    EXPECT_EQ(seq_detect_digest(dfq, dfq_frames, gl::enumerate_faults(dfq),
                                threads),
              0x0da10af274af7ec4ULL)
        << "MFVS diffeq w4, threads " << threads;
  }
}

TEST(SequentialFaultSim, ActivationPreFilterSkipsOnlyUndetectable) {
  // Short lane-identical sequences (the ATPG drop-call shape) leave many
  // fault sites at X or at their stuck value in every frame; those faults
  // are skipped (zero effort in the ledger) and must be ones the oracle
  // leaves undetected.
  const gl::Netlist n = mfvs_diffeq(4);
  const auto faults = gl::enumerate_faults(n);
  util::Counter& inactive =
      util::metrics().counter("faultsim.seq.faults_inactive");
  long skipped_total = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto frames = frame_shapes(n, seed)[2];
    const auto oracle = gl::sequential_fault_sim_full_resim(n, frames, faults);
    const std::int64_t inactive_before = inactive.read();
    observe::ledger_reset();
    observe::ledger_enable();
    const auto det =
        gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{2});
    observe::ledger_disable();
    const observe::LedgerSnapshot snap = observe::ledger_snapshot();
    observe::ledger_reset();
    EXPECT_EQ(det, oracle);
    long skipped = 0;
    for (const observe::FaultJourney& j : snap.journeys) {
      if (j.sim_events != 0) continue;
      ++skipped;
      const gl::Fault f{j.key.node, j.key.pin, j.key.sa1 != 0};
      const auto it = std::find(faults.begin(), faults.end(), f);
      ASSERT_NE(it, faults.end());
      EXPECT_FALSE(oracle[it - faults.begin()]) << gl::describe(n, f);
    }
    EXPECT_EQ(inactive.read() - inactive_before, skipped);
    skipped_total += skipped;
  }
  EXPECT_GT(skipped_total, 0);
}
#endif  // TSYN_LEDGER_NOOP

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.run(1000, 4, [&](int i, int slot) {
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotsAreExclusive) {
  // Two items sharing a slot must never run concurrently: model slot
  // scratch as a counter that would be corrupted by simultaneous use.
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> in_use(4);
  for (auto& s : in_use) s.store(0);
  std::atomic<bool> clash{false};
  pool.run(500, 4, [&](int, int slot) {
    if (in_use[static_cast<std::size_t>(slot)].fetch_add(1) != 0)
      clash.store(true);
    in_use[static_cast<std::size_t>(slot)].fetch_sub(1);
  });
  EXPECT_FALSE(clash.load());
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(3);
  EXPECT_THROW(pool.run(100, 3,
                        [](int i, int) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.run(10, 3, [&](int, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, InlineWhenSingleThreaded) {
  util::ThreadPool pool(1);
  std::set<int> seen;  // no mutex: must run on the calling thread
  pool.run(50, 1, [&](int i, int slot) {
    EXPECT_EQ(slot, 0);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 50u);
}

}  // namespace
}  // namespace tsyn
