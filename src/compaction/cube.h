// Ternary test-cube algebra: the value domain of test-set compaction.
//
// A test cube is a PI assignment with don't-cares (kX), exactly as PODEM
// emits it in AtpgResult::pi_values. Static compaction merges compatible
// cubes (no bit conflicts) into one; X-fill turns the surviving cubes into
// the fully-specified patterns a tester actually applies. Both operations
// are pure functions here so they are unit-testable without a netlist.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gatelevel/atpg_comb.h"

namespace tsyn::compaction {

using gl::V;

/// One ternary PI assignment, by position in Netlist::primary_inputs().
using TestCube = std::vector<V>;

/// Number of non-X bits.
int specified_count(const TestCube& c);

/// Two cubes are compatible when no position carries opposing constants
/// (k0 vs k1). Compatible cubes can be served by one pattern.
bool compatible(const TestCube& a, const TestCube& b);

/// Bitwise intersection of two compatible cubes: specified bits win over
/// X. Every test either cube guarantees, the merged cube guarantees too
/// (its specified bits are a superset of each input's).
TestCube merge(const TestCube& a, const TestCube& b);

/// Greedy static compaction: visits cubes most-specified first (dense
/// cubes seed bins, sparse cubes slot in) and merges each into the first
/// compatible bin, opening a new bin when none fits. Deterministic (ties
/// broken by emission order). Every input cube is absorbed by exactly one
/// output cube that refines it, so any fault a cube guarantees to detect
/// stays detected by its bin's every completion.
std::vector<TestCube> merge_compatible_cubes(
    const std::vector<TestCube>& cubes);

/// X-fill strategies (§test-data volume / N-detect trade-off): how the
/// don't-care bits left after compaction become tester constants.
enum class XFill {
  kRandom,    ///< seeded random bits — best incidental N-detect
  kZero,      ///< all X -> 0 — best compression of the shipped vectors
  kOne,       ///< all X -> 1
  kAdjacent,  ///< repeat the nearest specified bit — fewest transitions
              ///< (shift-power heuristic); leading X run copies the first
              ///< specified bit, an all-X cube 0-fills
};

/// Fills every X bit of every cube in place. kRandom draws from one Rng
/// (seeded `seed`) in cube order then bit order, so a filled set is a pure
/// function of (cubes, fill, seed) — thread count never changes it.
void apply_xfill(std::vector<TestCube>& cubes, XFill fill,
                 std::uint64_t seed);

const char* to_string(XFill fill);
/// Parses "random", "0"/"zero", "1"/"one", "adjacent". Returns false on
/// anything else.
bool parse_xfill(const std::string& text, XFill* out);

}  // namespace tsyn::compaction
