// Fault simulation.
//
// Parallel-pattern single-fault propagation with fault dropping for
// combinational circuits — the workhorse behind every fault-coverage
// number in the benches (full-scan coverage, BIST coverage, test-point
// evaluation). One propagation engine (faultsim_wide.h) serves every entry
// point: it runs on the compiled SoA form (simgraph.h) — levelized order,
// flat fanin/fanout arenas, per-level worklists — over W 64-lane blocks
// per pass: W=1 for FaultSimulator and 64-lane grading, W=8 with
// SIMD-dispatched kernels (widebits.h) for 512 lanes
// (FaultSimOptions::lanes), so one good-machine pass and one propagation
// per fault cover a whole super-block of patterns. The fault list is
// spread over a worker pool with chunked work-stealing: each worker drains
// its own contiguous range chunk by chunk, then steals chunks from the
// others, so cone-size imbalance stops costing wall-clock. Sequential
// circuits are graded by fault-slot-parallel frame simulation: each 64-bit
// word of a W=8 row is one faulty machine with its own fault, frame and
// flip-flop state, so one levelized sweep advances eight faults by one
// frame; a slot is refilled as soon as its fault is detected.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"

namespace tsyn::gl {

/// Knobs shared by every fault-simulation entry point.
struct FaultSimOptions {
  /// Worker threads the fault list is spread over. 0 = one per hardware
  /// thread; 1 = serial, bit-identical to the single-threaded engine (the
  /// parallel path is deterministic too — faults are independent — but 1
  /// also avoids touching the pool entirely).
  int num_threads = 0;

  /// Pattern lanes graded per good-machine pass: 64 (one machine word,
  /// the default; its ledger JSON is pinned by digest in
  /// tests/test_simgraph.cpp) or 512. The wide width produces the exact
  /// same detected-fault set and per-fault first-detecting pattern as the
  /// corresponding sequence of 64-lane blocks (asserted in
  /// tests/test_simgraph.cpp); only per-fault simulation-effort event
  /// counts in the ledger differ (fewer, wider propagations). Widening
  /// pays off when most faults stay live across many blocks — no-drop
  /// detection matrices (N-detect, compaction pruning), BIST signature
  /// grading — and on the good-machine side; with aggressive fault
  /// dropping the first 64 lanes already retire most faults and 64 stays
  /// the right default. See docs/faultsim.md.
  int lanes = 64;

  /// num_threads with 0 resolved to the hardware parallelism (>= 1).
  int resolved_threads() const;

  /// lanes snapped to a supported width (64 or 512).
  int resolved_lanes() const { return lanes == 512 ? 512 : 64; }
};

/// Parallel-pattern combinational fault simulator, one 64-lane block per
/// call — the incremental form of fault_coverage for callers that grade
/// block by block (ATPG campaigns, two-pattern grading). The netlist must
/// be combinational (no DFFs) — expand scan/BIST registers as PI/PO first.
class FaultSimulator {
 public:
  explicit FaultSimulator(const Netlist& n,
                          const FaultSimOptions& options = {});
  FaultSimulator(FaultSimulator&&) noexcept;
  ~FaultSimulator();

  /// Simulates one 64-lane block. `pi_values[i]` is the Bits value of
  /// primary input i (by position in primary_inputs()). Marks faults
  /// detected in `detected`; already-detected faults are skipped (fault
  /// dropping). Returns how many new faults the block detected.
  int run_block(const std::vector<Bits>& pi_values,
                const std::vector<Fault>& faults,
                std::vector<bool>& detected);

  /// Good-machine PO values of the last block (by output position).
  const std::vector<Bits>& good_outputs() const { return good_po_; }

  /// Like run_block but without fault dropping: fills `lane_masks[i]` with
  /// the 64-bit mask of lanes detecting fault i, and leaves the good
  /// values queryable via good_value(). Needed by two-pattern (transition
  /// fault) grading, which must know *which* pattern detects.
  void run_block_detail(const std::vector<Bits>& pi_values,
                        const std::vector<Fault>& faults,
                        std::vector<std::uint64_t>& lane_masks);

  /// Good-machine value of any node after the last block.
  Bits good_value(int node) const;

 private:
  /// The shared PPSFP shard loop at one block per pass (faultsim_wide.h,
  /// kept out of this header so its templates never reach ISA-flagged TUs).
  struct Engine;

  /// Simulates the good machine on `pi_values`, then propagates every
  /// fault not marked in `skip` over the worker pool; masks[i] receives
  /// fault i's detecting lane mask.
  void grade(const std::vector<Bits>& pi_values,
             const std::vector<Fault>& faults, const std::vector<bool>* skip,
             std::vector<std::uint64_t>& masks);

  const Netlist& n_;
  FaultSimOptions options_;
  std::unique_ptr<Engine> engine_;
  std::vector<Bits> good_po_;
  std::vector<std::uint64_t> masks_;  ///< run_block scratch
  /// Blocks run_block has graded, so ledger detect events carry global
  /// pattern indices (64 * block + lane) across a whole campaign.
  long blocks_run_ = 0;
};

/// Convenience: coverage of `faults` under `blocks` of PI patterns.
/// Returns the fraction detected; `detected` (optional) receives the mask.
/// options.lanes = 512 grades 8 blocks per pass instead of one —
/// same detected set and first-detecting patterns, fewer passes.
double fault_coverage(const Netlist& n,
                      const std::vector<std::vector<Bits>>& blocks,
                      const std::vector<Fault>& faults,
                      std::vector<bool>* detected = nullptr,
                      const FaultSimOptions& options = {});

/// Full detection matrix, no fault dropping: grades every fault against
/// every block and fills `masks[f * blocks.size() + b]` with the 64-bit
/// lane mask of block b detecting fault f. This is the workload shape of
/// N-detect grading and compaction's reverse-order pruning, and the one
/// where wide lanes pay off most — options.lanes picks the engine width,
/// the result is bit-identical across widths.
void detection_masks(const Netlist& n,
                     const std::vector<std::vector<Bits>>& blocks,
                     const std::vector<Fault>& faults,
                     std::vector<std::uint64_t>& masks,
                     const FaultSimOptions& options = {});

/// Per-fault sequential simulation over a vector sequence (64 lanes of
/// sequences in parallel; lane l of frame f is vector f of sequence l;
/// missing PI values are X). FFs start unknown. The good machine is
/// simulated once; a fault whose site never carries the known opposite of
/// its stuck value, in any frame or lane, is skipped as undetectable (an
/// exact pre-filter; DFF pin faults have no effect and are skipped too).
/// The rest run on the slot engine (faultsim_wide.h): word w of every
/// W=8 node row is one faulty machine with its own fault, frame index and
/// carried flip-flop state; each full levelized sweep advances every slot
/// one frame, and a slot whose fault is detected or out of frames takes
/// the next fault from a cursor shared by the worker pool. Each fault
/// stops at its first detecting frame, exactly as a per-fault loop would.
/// Returns the detected mask.
std::vector<bool> sequential_fault_sim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults, const FaultSimOptions& options = {});

/// Reference implementation of sequential_fault_sim: full-circuit
/// re-simulation of every frame for every fault, single-threaded, walking
/// the Netlist directly (not the SimGraph). Kept as the independent
/// equivalence oracle for tests and the baseline for the perf bench.
std::vector<bool> sequential_fault_sim_full_resim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults);

}  // namespace tsyn::gl
