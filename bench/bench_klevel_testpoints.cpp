// EXP-KLEVEL — non-scan DFT with k-level test points (§4.2, [15]).
//
// Making every loop k-level (k > 0) controllable/observable needs far
// fewer insertions than the k=0 rule (a scan register in every loop),
// while random-pattern fault coverage of the non-scan design stays high.
#include "common.h"

#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "rtl/sgraph.h"
#include "testability/rtl_scan.h"
#include "testability/testpoints.h"
#include "util/rng.h"

namespace tsyn {
namespace {

/// Random-pattern sequential fault coverage of the (non-scan) datapath
/// with free control lines, over a sampled fault list.
double nonscan_coverage(const rtl::Datapath& dp, int frames_count,
                        int max_faults) {
  gl::ExpandOptions opts;
  opts.width_override = 4;
  opts.respect_scan = false;  // nothing is scanned: pure test points
  const gl::ExpandedDesign x = gl::expand_datapath(dp, opts);
  auto faults = gl::enumerate_faults(x.netlist);
  if (static_cast<int>(faults.size()) > max_faults) {
    std::vector<gl::Fault> sampled;
    const std::size_t stride = faults.size() / max_faults;
    for (std::size_t i = 0; i < faults.size(); i += stride)
      sampled.push_back(faults[i]);
    faults = std::move(sampled);
  }
  util::Rng rng(0x515);
  std::vector<std::vector<gl::Bits>> frames(frames_count);
  for (auto& frame : frames) {
    frame.resize(x.netlist.primary_inputs().size());
    for (auto& bits : frame) bits = gl::Bits::known(rng.next_u64());
  }
  const auto detected = gl::sequential_fault_sim(x.netlist, frames, faults);
  long hit = 0;
  for (bool d : detected) hit += d;
  return faults.empty() ? 1.0
                        : static_cast<double>(hit) /
                              static_cast<double>(faults.size());
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-KLEVEL",
      "Paper claim (§4.2, [15]): making loops k-level (k>0) controllable "
      "and observable\nneeds significantly fewer test points than direct "
      "(k=0) access while keeping\nfault coverage high.");

  util::Table table({"benchmark", "method", "insertions",
                     "k-level violations", "coverage (random, non-scan)"});
  bool proven = true;
  int left = 0;  // violations insertion failed to remove, over all rows
  std::vector<cdfg::Cdfg> graphs;
  graphs.push_back(cdfg::iir_biquad());
  graphs.push_back(cdfg::diffeq());
  graphs.push_back(cdfg::ar_lattice(6));
  graphs.push_back(cdfg::wave_filter(8));
  for (const cdfg::Cdfg& g : graphs) {
    // Tight allocation: heavy sharing, many loops — the regime where DFT
    // insertions matter.
    hls::SynthesisOptions so;
    so.resources = hls::Resources{{cdfg::FuType::kAlu, 1},
                                  {cdfg::FuType::kMultiplier, 1}};
    const hls::Synthesis syn = hls::synthesize(g, so);

    // Reference: conventional partial scan (a scan register per loop,
    // register MFVS).
    {
      rtl::Datapath dp = syn.rtl.datapath;
      const graph::MfvsResult scan =
          testability::register_only_partial_scan(dp);
      proven &= scan.optimal;
      table.add_row({g.name(), "partial scan (MFVS)",
                     bench::mfvs_cell(scan), "0", "-"});
    }
    // k = 0..2 test points (k=0 = direct access in every loop, the
    // conventional rule recast as test points).
    for (int k = 0; k <= 2; ++k) {
      rtl::Datapath dp = syn.rtl.datapath;
      const testability::TestPointResult r =
          testability::insert_klevel_test_points(dp, k, true);
      const int violations = testability::klevel_violations(
          dp, k, r.control_point_regs, r.observe_point_regs);
      left += violations;
      const double cov = nonscan_coverage(dp, 40, 400);
      table.add_row({g.name(), "k=" + std::to_string(k) + " test points",
                     std::to_string(r.total()),
                     std::to_string(violations), util::fmt_pct(cov)});
    }
    // Coverage without any DFT, for reference.
    {
      const double cov = nonscan_coverage(syn.rtl.datapath, 40, 400);
      table.add_row({g.name(), "no DFT", "0", "-", util::fmt_pct(cov)});
    }
  }
  bench::print_table(table);
  if (left != 0) {
    std::fputs("VIOLATION: test-point insertion left registers on loops "
               "that are not k-level controllable and observable\n",
               stderr);
    return 1;
  }
  return bench::mfvs_exit_status(proven);
}
