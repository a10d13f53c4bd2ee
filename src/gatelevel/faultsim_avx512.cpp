// AVX-512F instantiations of the 512-lane wide PPSFP engine and of the
// sequential slot engine. Compiled with -mavx512f when the compiler accepts it;
// called only after runtime CPU detection. Same comdat caveat as
// faultsim_avx2.cpp: nothing but the instantiations lives here.
#include "gatelevel/faultsim_wide.h"

namespace tsyn::gl::wide_detail {

void wide_campaign_avx512_w8(const Netlist& n,
                             const std::vector<std::vector<Bits>>& blocks,
                             const std::vector<Fault>& faults,
                             const FaultSimOptions& options,
                             std::vector<bool>* detected,
                             std::vector<std::uint64_t>* matrix) {
  wide_campaign<8, Avx512Words>(n, blocks, faults, options, detected, matrix);
}

void seq_slots_avx512_w8(SeqJob& job, int workers) {
  seq_slots<8, Avx512Words>(job, workers);
}

}  // namespace tsyn::gl::wide_detail
