// BIST pattern sources and response compaction (§5, [21], [28]).
//
// Software models of the test-mode hardware: LFSR-based pseudorandom
// pattern generators (TPGR), MISR signature registers (SR), and the
// arithmetic (accumulator-based) generators of Mukherjee et al. [28]. They
// produce the input streams fault simulation consumes; compaction aliasing
// is modelled by the MISR signature.
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/netlist.h"

namespace tsyn::gl {

/// Fibonacci LFSR; default taps give a maximal-length sequence for the
/// supported widths (8, 16, 24, 32, 64).
class Lfsr {
 public:
  Lfsr(int width, std::uint64_t seed);

  /// Advances one clock and returns the new state. Galois form: shift
  /// right and XOR the taps when the bit shifted out was 1.
  std::uint64_t step() {
    state_ = (state_ >> 1) ^ (taps_ & (0 - (state_ & 1)));
    return state_;
  }
  /// Same as `steps` calls of step(), in word operations.
  void skip(int steps);
  std::uint64_t state() const { return state_; }
  int width() const { return width_; }

 private:
  int width_;
  std::uint64_t state_;
  std::uint64_t taps_;  ///< within `width` bits, so steps stay in range
};

/// Multiple-input signature register (software model) with a 64-bit
/// state, starting at 0. absorb() XORs the whole 64-bit response word into
/// the state, then shifts the state right by one bit and, when the bit
/// shifted out was 1, XORs in the feedback constant 0x80200003.
class Misr {
 public:
  /// Compacts one response word.
  void absorb(std::uint64_t response);
  std::uint64_t signature() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// Pseudorandom pattern blocks for bit-level fault simulation: `blocks`
/// 64-pattern groups over `num_inputs` PI bits, driven by one long LFSR the
/// way a PRPG feeding a scan chain would.
std::vector<std::vector<Bits>> lfsr_pattern_blocks(int num_inputs,
                                                   int num_blocks,
                                                   std::uint64_t seed);

/// Arithmetic BIST generator [28]: the word sequence of an accumulator
/// repeatedly adding `increment` (mod 2^width). Good increments (odd,
/// near 2^width * golden ratio) sweep operand subspaces quickly.
std::vector<std::uint64_t> accumulator_sequence(int width,
                                                std::uint64_t increment,
                                                std::uint64_t seed,
                                                int count);

/// Packs word sequences (one per input port, each `count` words of
/// `width` bits) into 64-lane Bits blocks for fault simulation. Port i's
/// bit b maps to consecutive PI positions (port-major, LSB first).
std::vector<std::vector<Bits>> pack_word_patterns(
    const std::vector<std::vector<std::uint64_t>>& port_words, int width);

}  // namespace tsyn::gl
