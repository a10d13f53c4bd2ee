// Test-set compaction & compression: the pipeline stage between "fault
// coverage achieved" and "test time minimized".
//
// The ATPG campaign emits one independent ternary cube per detected fault
// and never exploits the don't-care bits PODEM leaves. This subsystem
// consumes those cubes and minimizes the shipped test set in four passes:
//
//   1. dynamic compaction — after PODEM detects a primary fault, re-enter
//      the generator with the partial cube as an immutable base
//      (Podem::generate_multi_from_base) and target secondary faults into
//      the unspecified inputs, so fewer cubes are emitted at all;
//   2. static compaction — greedy compatible-cube merging (cube.h), most
//      specified cube first;
//   3. X-fill — the surviving don't-cares become tester constants
//      (random / 0 / 1 / adjacent), gradeable for N-detect quality;
//   4. reverse-order pruning — grade the filled patterns into a no-drop
//      detection matrix, credit every fault to the last pattern detecting
//      it and drop every pattern that earns no credit.
//
// Cost contract: `patterns` is what ships. pattern count = patterns.size(),
// test data volume = pattern count x PI count bits. The uncompacted
// baseline is the pattern set the plain campaign's fault_coverage actually
// certifies: run_combinational_atpg grades (and fault-drops against) a
// 64-lane random-completion block per cube (AtpgCampaign::graded_fill), so
// realizing its claimed coverage means applying all 64 completions of
// every cube — baseline_patterns = 64 x cube count. Coverage never drops:
// each input cube's guaranteed detections survive merging and filling
// (merging only specifies X bits), pruning keeps one detecting pattern per
// covered fault, and a final top-up stage re-adds a detecting pattern
// (extracted from the campaign's recorded grading blocks,
// AtpgCampaign::graded_fill) for any fault the campaign detected only
// through a lucky random fill. All passes are deterministic and
// independent of the grading thread count and lane width.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compaction/cube.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"

namespace tsyn::compaction {

/// How much of the pipeline runs.
enum class CompactMode {
  kOff,     ///< plain run_combinational_atpg, bit-identical; no merging
  kStatic,  ///< static merging + fill + pruning on the campaign's cubes
  kDynamic, ///< secondary-fault targeting during generation, then kStatic
};

const char* to_string(CompactMode mode);
/// Parses "off", "static", "dynamic". Returns false on anything else.
bool parse_compact_mode(const std::string& text, CompactMode* out);

struct CompactionOptions {
  CompactMode mode = CompactMode::kOff;
  XFill xfill = XFill::kRandom;
  /// Rng seed for XFill::kRandom.
  std::uint64_t fill_seed = 0xF111;
};

struct CompactionStats {
  long cubes_generated = 0;    ///< cubes out of generation (post-dynamic)
  long secondary_merged = 0;   ///< faults folded into earlier cubes
  long cubes_after_merge = 0;  ///< bins after static compaction
  long patterns_pruned = 0;    ///< dropped by reverse-order pruning
  long topup_patterns = 0;     ///< re-added (greedy set cover) to restore
                               ///< campaign coverage
};

/// A campaign plus its compacted, shippable test set.
struct CompactedCampaign {
  /// The generating campaign. Mode kOff/kStatic: bit-identical to
  /// run_combinational_atpg with the same arguments. Mode kDynamic: the
  /// dynamic generator's statuses and effort (secondary probes included).
  gl::AtpgCampaign campaign;
  /// Final merged cubes (ternary; == campaign.tests in kOff mode).
  std::vector<TestCube> cubes;
  /// The shipped test set: fully-specified, post-fill/prune/top-up.
  std::vector<TestCube> patterns;
  /// Coverage of `patterns` on the fault list, bit-equal to a from-scratch
  /// gl::fault_coverage grade of them. Compacting modes derive it from the
  /// pruning matrix and the top-up cover, and grade only the residual
  /// faults (neither campaign detected them) against the top-ups; kOff
  /// grades the filled cubes. >= the campaign's fault_coverage and the
  /// measured baseline's by construction.
  double pattern_coverage = 0;
  /// The uncompacted campaign's shipped pattern count at its claimed
  /// coverage: 64 fully-specified patterns per cube (the graded_fill
  /// blocks its fault dropping is certified against). kStatic measures it
  /// for free (the plain campaign is the generator); kDynamic runs the
  /// plain campaign a second time, for a measured baseline instead of an
  /// assumed one, and its detected set widens the coverage floor the
  /// top-up restores. kOff mode reports patterns.size() — no compaction,
  /// no reduction claimed.
  long baseline_patterns = 0;
  CompactionStats stats;

  long test_data_bits() const {
    return static_cast<long>(patterns.size()) *
           (patterns.empty() ? 0 : static_cast<long>(patterns[0].size()));
  }
  /// Fractional pattern-count reduction vs the measured baseline.
  double reduction() const {
    return baseline_patterns > 0
               ? 1.0 - static_cast<double>(patterns.size()) /
                           static_cast<double>(baseline_patterns)
               : 0.0;
  }
};

/// The full pipeline. `n` must be combinational (full-scan expanded);
/// `backtrack_limit` bounds each primary PODEM run exactly as in
/// run_combinational_atpg; `sim_options` is passed to every grading pass
/// (gl::fault_coverage and gl::detection_masks, which shard the fault list
/// over util::ThreadPool). Drop-mode grading runs at its lane width; the
/// no-drop matrices (pruning, top-up, detection_matrix) widen it to 512
/// lanes from two 64-pattern blocks up, where the wide engine is faster.
/// Deterministic for fixed options regardless of thread count and lane
/// width; only the ledger's per-fault sim_events depend on the width.
CompactedCampaign run_compacted_atpg(
    const gl::Netlist& n, const std::vector<gl::Fault>& faults,
    const CompactionOptions& copts = {}, long backtrack_limit = 10000,
    const gl::FaultSimOptions& sim_options = {});

// ---- grading utilities (used by the pipeline, benches, and tests) ----

/// Packs fully-specified patterns into 64-lane blocks (lane l of block b
/// carries pattern 64*b+l; trailing lanes of the last block repeat the
/// block's first pattern, which is harmless for coverage). Throws if a
/// pattern still contains kX.
std::vector<std::vector<gl::Bits>> patterns_to_blocks(
    const std::vector<TestCube>& patterns);

/// Per-fault, per-pattern detection matrix in gl::detection_masks'
/// fault-major layout: with B = ceil(patterns / 64) blocks, bit (p % 64)
/// of result[f * B + p / 64] is set iff pattern p detects fault f. No
/// fault dropping; lanes past the last pattern are clear. Identical for
/// every thread count and lane width (grades at 512 lanes from two blocks
/// up, see run_compacted_atpg).
std::vector<std::uint64_t> detection_matrix(
    const gl::Netlist& n, const std::vector<TestCube>& patterns,
    const std::vector<gl::Fault>& faults,
    const gl::FaultSimOptions& sim_options = {});

/// Reverse-order pruning on a detection_matrix of `num_patterns`
/// patterns: credits each fault to the LAST pattern detecting it and
/// returns the indices (ascending) of patterns that earn at least one
/// credit. The kept subset detects exactly the faults the full set
/// detects.
std::vector<int> prune_from_matrix(const std::vector<std::uint64_t>& matrix,
                                   std::size_t num_patterns);

/// N-detect profile of a pattern set: counts[f] = how many patterns detect
/// fault f. The X-fill quality measure (random fill buys incidental
/// multi-detects, 0-fill rarely does).
struct NdetectProfile {
  std::vector<int> counts;
  /// Fraction of `faults` detected at least `k` times.
  double fraction_at_least(int k) const;
};
NdetectProfile grade_ndetect(const gl::Netlist& n,
                             const std::vector<TestCube>& patterns,
                             const std::vector<gl::Fault>& faults,
                             const gl::FaultSimOptions& sim_options = {});

}  // namespace tsyn::compaction
