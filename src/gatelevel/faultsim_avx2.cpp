// AVX2 instantiations of the wide PPSFP and sequential slot engines. This
// translation unit is compiled with -mavx2 (see CMakeLists.txt) and added
// to the build only when the compiler accepts the flag; faultsim.cpp calls
// in here only after runtime CPU detection says AVX2 exists. Keep the TU
// to these instantiations — any other code compiled here may pick up AVX
// encodings and leak into the portable build through comdat folding.
#include "gatelevel/faultsim_wide.h"

namespace tsyn::gl::wide_detail {

void wide_campaign_avx2_w8(const Netlist& n,
                           const std::vector<std::vector<Bits>>& blocks,
                           const std::vector<Fault>& faults,
                           const FaultSimOptions& options,
                           std::vector<bool>* detected,
                           std::vector<std::uint64_t>* matrix) {
  wide_campaign<8, Avx2Words>(n, blocks, faults, options, detected, matrix);
}

void seq_slots_avx2_w8(SeqJob& job, int workers) {
  seq_slots<8, Avx2Words>(job, workers);
}

}  // namespace tsyn::gl::wide_detail
