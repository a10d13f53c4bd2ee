#include "gatelevel/bistgen.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace tsyn::gl {

namespace {

std::uint64_t default_taps(int width) {
  // Maximal-length polynomials (taps as bit masks, LSB = stage 0).
  switch (width) {
    case 8: return 0xB8;                  // x^8+x^6+x^5+x^4+1
    case 16: return 0xB400;               // x^16+x^14+x^13+x^11+1
    case 24: return 0xE10000;             // x^24+x^23+x^22+x^17+1
    case 32: return 0x80200003;           // x^32+x^22+x^2+x^1+1
    case 64: return 0xD800000000000000ULL;  // x^64+x^63+x^61+x^60+1
    default:
      throw std::runtime_error("no default taps for LFSR width " +
                               std::to_string(width));
  }
}

}  // namespace

Lfsr::Lfsr(int width, std::uint64_t seed)
    : width_(width), taps_(default_taps(width)) {
  state_ = seed & (width == 64 ? ~0ULL : ((1ULL << width) - 1));
  if (state_ == 0) state_ = 1;  // the all-zero state is absorbing
}

void Lfsr::skip(int steps) {
  // Until a tap bit reaches bit 0, the bits shifted out are the state's own
  // low bits, so up to `lowest tap + 1` steps XOR those bits, shifted up,
  // in at every tap at once.
  const int chunk = std::countr_zero(taps_) + 1;
  while (steps > 0) {
    const int k = std::min(steps, chunk);
    const std::uint64_t out = k == 64 ? state_ : state_ & ((1ULL << k) - 1);
    std::uint64_t next = k == 64 ? 0 : state_ >> k;
    for (std::uint64_t t = taps_; t != 0; t &= t - 1)
      next ^= out << (std::countr_zero(t) + 1 - k);
    state_ = next;
    steps -= k;
  }
}

void Misr::absorb(std::uint64_t response) {
  state_ ^= response;
  const bool lsb = state_ & 1;
  state_ >>= 1;
  if (lsb) state_ ^= 0x80200003ULL;
}

namespace {

// In-place 64x64 bit-matrix transpose, LSB-first: on return, bit r of
// m[c] is what bit c of m[r] was. Swaps ever smaller off-diagonal blocks.
void transpose64(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j)
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
}

}  // namespace

std::vector<std::vector<Bits>> lfsr_pattern_blocks(int num_inputs,
                                                   int num_blocks,
                                                   std::uint64_t seed) {
  Lfsr lfsr(64, seed ^ 0x5DEECE66DULL);
  std::vector<std::vector<Bits>> blocks(num_blocks);
  std::uint64_t s1[64], s2[64];
  for (auto& block : blocks) {
    for (int lane = 0; lane < 64; ++lane) {
      // A PRPG shifts the whole chain between captures; stepping past the
      // state width leaves successive patterns effectively independent.
      lfsr.skip(66);
      s1[lane] = lfsr.step();
      s2[lane] = lfsr.step();
    }
    // Input i of lane L is bit i % 64 of that lane's s1 (even 64-input
    // groups) or s2 (odd groups): a row of the transposed state words.
    transpose64(s1);
    transpose64(s2);
    block.resize(num_inputs);
    for (int i = 0; i < num_inputs; ++i)
      block[i] = Bits::known((i / 64) % 2 == 0 ? s1[i % 64] : s2[i % 64]);
  }
  return blocks;
}

std::vector<std::uint64_t> accumulator_sequence(int width,
                                                std::uint64_t increment,
                                                std::uint64_t seed,
                                                int count) {
  const std::uint64_t mask =
      width == 64 ? ~0ULL : ((1ULL << width) - 1);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t acc = seed & mask;
  for (int i = 0; i < count; ++i) {
    out.push_back(acc);
    acc = (acc + increment) & mask;
  }
  return out;
}

std::vector<std::vector<Bits>> pack_word_patterns(
    const std::vector<std::vector<std::uint64_t>>& port_words, int width) {
  assert(!port_words.empty());
  const std::size_t count = port_words[0].size();
  for (const auto& seq : port_words) {
    (void)seq;
    assert(seq.size() == count);
  }

  const int num_blocks = static_cast<int>((count + 63) / 64);
  const int num_inputs = static_cast<int>(port_words.size()) * width;
  std::vector<std::vector<Bits>> blocks(num_blocks);
  for (int blk = 0; blk < num_blocks; ++blk) {
    blocks[blk].assign(num_inputs, Bits::all0());
    for (int lane = 0; lane < 64; ++lane) {
      const std::size_t pattern = static_cast<std::size_t>(blk) * 64 + lane;
      // Repeat the last pattern into unused lanes of the final block.
      const std::size_t idx = pattern < count ? pattern : count - 1;
      for (std::size_t port = 0; port < port_words.size(); ++port) {
        const std::uint64_t word = port_words[port][idx];
        for (int b = 0; b < width; ++b)
          if ((word >> b) & 1)
            blocks[blk][port * width + b].v |= 1ULL << lane;
      }
    }
  }
  return blocks;
}

}  // namespace tsyn::gl
