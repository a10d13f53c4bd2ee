// EXP-COMPACTION — test-set compaction & compression on the benchmark
// DFGs.
//
// The survey's central cost axis is test effort: pattern count and test
// application time. This bench measures what the compaction subsystem
// (src/compaction/) buys over the raw ATPG campaign on full-scan
// expansions of the benchmark behaviors:
//   - pattern count: uncompacted vs static (cube merging + reverse-order
//     pruning) vs dynamic (secondary-fault targeting during generation);
//   - test data volume (patterns x PI bits);
//   - coverage, which by the subsystem's contract never drops (the bench
//     exits 1, with a COVERAGE: line on stderr, when a mode's does);
//   - X-fill quality: N-detect profiles of the fill strategies on the
//     static-compacted diffeq test set.
//
// Results go to stdout and BENCH_compaction.json (schema in
// docs/compaction.md) so the reduction trajectory is tracked per PR.
#include "common.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "util/table.h"

namespace tsyn {
namespace {

constexpr long kBacktrackLimit = 10000;

gl::Netlist full_scan_netlist(const cdfg::Cdfg& g, int width) {
  const hls::Synthesis syn = bench::synthesize_standard(g);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(dp, x).netlist;
}

struct Row {
  std::string circuit;
  int gates = 0;
  std::size_t faults = 0;
  long patterns_uncompacted = 0;
  double coverage_uncompacted = 0;
  long patterns_static = 0;
  double coverage_static = 0;
  long patterns_dynamic = 0;
  double coverage_dynamic = 0;
  long secondary_merged = 0;
  long pruned = 0;
  long topup = 0;
  long tdv_bits_uncompacted = 0;
  long tdv_bits_dynamic = 0;
  double static_ms = 0;
  double dynamic_ms = 0;
  double reduction_static() const {
    return patterns_uncompacted > 0
               ? 1.0 - static_cast<double>(patterns_static) /
                           static_cast<double>(patterns_uncompacted)
               : 0.0;
  }
  double reduction_dynamic() const {
    return patterns_uncompacted > 0
               ? 1.0 - static_cast<double>(patterns_dynamic) /
                           static_cast<double>(patterns_uncompacted)
               : 0.0;
  }
};

struct FillRow {
  std::string fill;
  long patterns = 0;
  double coverage = 0;
  double at_least2 = 0;
  double at_least4 = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Row run_case(const std::string& name, const cdfg::Cdfg& g, int width) {
  const gl::Netlist n = full_scan_netlist(g, width);
  const auto faults = gl::enumerate_faults(n);
  Row row;
  row.circuit = name;
  row.gates = n.gate_count();
  row.faults = faults.size();

  compaction::CompactionOptions copts;
  copts.xfill = compaction::XFill::kAdjacent;

  copts.mode = compaction::CompactMode::kStatic;
  auto t0 = std::chrono::steady_clock::now();
  const compaction::CompactedCampaign st =
      compaction::run_compacted_atpg(n, faults, copts, kBacktrackLimit);
  row.static_ms = ms_since(t0);
  row.patterns_uncompacted = st.baseline_patterns;
  row.coverage_uncompacted = st.campaign.fault_coverage;
  row.patterns_static = static_cast<long>(st.patterns.size());
  row.coverage_static = st.pattern_coverage;
  row.tdv_bits_uncompacted =
      row.patterns_uncompacted *
      static_cast<long>(n.primary_inputs().size());

  // Dynamic mode also runs the plain campaign: its detected set is the
  // coverage floor the top-up restores, so dynamic coverage never dips
  // below uncompacted even where secondary targeting loses lucky fills.
  copts.mode = compaction::CompactMode::kDynamic;
  t0 = std::chrono::steady_clock::now();
  const compaction::CompactedCampaign dy =
      compaction::run_compacted_atpg(n, faults, copts, kBacktrackLimit);
  row.dynamic_ms = ms_since(t0);
  row.patterns_dynamic = static_cast<long>(dy.patterns.size());
  row.coverage_dynamic = dy.pattern_coverage;
  row.secondary_merged = dy.stats.secondary_merged;
  row.pruned = dy.stats.patterns_pruned;
  row.topup = dy.stats.topup_patterns;
  row.tdv_bits_dynamic = dy.test_data_bits();
  return row;
}

/// The subsystem's contract: neither compacting mode ships a set covering
/// less than the uncompacted campaign. Prints a COVERAGE: line on stderr
/// per violation and returns whether there was none.
bool coverage_never_drops(const std::vector<Row>& rows) {
  bool ok = true;
  for (const Row& r : rows) {
    const std::pair<const char*, double> shipped[] = {
        {"static", r.coverage_static}, {"dynamic", r.coverage_dynamic}};
    for (const auto& [mode, coverage] : shipped) {
      if (coverage + 1e-12 >= r.coverage_uncompacted) continue;
      std::fprintf(stderr,
                   "COVERAGE: %s %s coverage %.4f below uncompacted %.4f\n",
                   r.circuit.c_str(), mode, coverage, r.coverage_uncompacted);
      ok = false;
    }
  }
  return ok;
}

std::vector<FillRow> xfill_sweep(const cdfg::Cdfg& g, int width) {
  const gl::Netlist n = full_scan_netlist(g, width);
  const auto faults = gl::enumerate_faults(n);
  std::vector<FillRow> rows;
  for (compaction::XFill fill :
       {compaction::XFill::kRandom, compaction::XFill::kZero,
        compaction::XFill::kOne, compaction::XFill::kAdjacent}) {
    compaction::CompactionOptions copts;
    copts.mode = compaction::CompactMode::kStatic;
    copts.xfill = fill;
    const compaction::CompactedCampaign c =
        compaction::run_compacted_atpg(n, faults, copts, kBacktrackLimit);
    const compaction::NdetectProfile prof =
        compaction::grade_ndetect(n, c.patterns, faults);
    FillRow r;
    r.fill = compaction::to_string(fill);
    r.patterns = static_cast<long>(c.patterns.size());
    r.coverage = c.pattern_coverage;
    r.at_least2 = prof.fraction_at_least(2);
    r.at_least4 = prof.fraction_at_least(4);
    rows.push_back(r);
  }
  return rows;
}

void write_json(const std::vector<Row>& rows,
                const std::vector<FillRow>& fills,
                std::uint64_t fill_seed) {
  FILE* f = std::fopen("BENCH_compaction.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_compaction.json\n");
    return;
  }
  bench::write_json_preamble(f, fill_seed);
  std::fprintf(f, "  \"compaction\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"gates\": %d, \"faults\": %zu, "
        "\"patterns_uncompacted\": %ld, \"coverage_uncompacted\": %.4f, "
        "\"patterns_static\": %ld, \"patterns_dynamic\": %ld, "
        "\"coverage_dynamic\": %.4f, \"reduction_static\": %.3f, "
        "\"reduction_dynamic\": %.3f, \"secondary_merged\": %ld, "
        "\"pruned\": %ld, \"topup\": %ld, "
        "\"tdv_bits_uncompacted\": %ld, \"tdv_bits_dynamic\": %ld, "
        "\"static_ms\": %.1f, \"dynamic_ms\": %.1f}%s\n",
        r.circuit.c_str(), r.gates, r.faults, r.patterns_uncompacted,
        r.coverage_uncompacted, r.patterns_static, r.patterns_dynamic,
        r.coverage_dynamic, r.reduction_static(), r.reduction_dynamic(),
        r.secondary_merged, r.pruned, r.topup, r.tdv_bits_uncompacted,
        r.tdv_bits_dynamic, r.static_ms, r.dynamic_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"xfill\": [\n");
  for (std::size_t i = 0; i < fills.size(); ++i) {
    const FillRow& r = fills[i];
    std::fprintf(f,
                 "    {\"fill\": \"%s\", \"patterns\": %ld, "
                 "\"coverage\": %.4f, \"at_least2\": %.4f, "
                 "\"at_least4\": %.4f}%s\n",
                 r.fill.c_str(), r.patterns, r.coverage, r.at_least2,
                 r.at_least4, i + 1 < fills.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::write_metrics_field(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-COMPACTION",
      "Claim: exploiting PODEM's don't-care bits (cube merging, dynamic\n"
      "compaction, reverse-order pruning) cuts the shipped pattern count\n"
      ">= 25% at no coverage loss, shrinking test time proportionally.");

  const compaction::CompactionOptions defaults;
  std::vector<Row> rows;
  rows.push_back(run_case("diffeq_w4", cdfg::diffeq(), 4));
  rows.push_back(run_case("tseng_w4", cdfg::tseng(), 4));
  rows.push_back(run_case("iir_w4", cdfg::iir_biquad(), 4));
  rows.push_back(run_case("fir6_w4", cdfg::fir(6), 4));
  rows.push_back(run_case("dct4_w4", cdfg::dct4(), 4));

  util::Table t({"circuit", "gates", "faults", "uncomp", "static", "dynamic",
                 "red stat", "red dyn", "2nd", "prune", "topup", "cov"});
  for (const Row& r : rows)
    t.add_row({r.circuit, std::to_string(r.gates), std::to_string(r.faults),
               std::to_string(r.patterns_uncompacted),
               std::to_string(r.patterns_static),
               std::to_string(r.patterns_dynamic),
               util::fmt(100 * r.reduction_static(), 1) + "%",
               util::fmt(100 * r.reduction_dynamic(), 1) + "%",
               std::to_string(r.secondary_merged), std::to_string(r.pruned),
               std::to_string(r.topup), util::fmt(100 * r.coverage_dynamic, 1)});
  bench::print_table(t);

  const std::vector<FillRow> fills = xfill_sweep(cdfg::diffeq(), 4);
  util::Table ft({"fill", "patterns", "coverage", ">=2 det", ">=4 det"});
  for (const FillRow& r : fills)
    ft.add_row({r.fill, std::to_string(r.patterns),
                util::fmt(100 * r.coverage, 1), util::fmt(100 * r.at_least2, 1),
                util::fmt(100 * r.at_least4, 1)});
  bench::print_table(ft);

  write_json(rows, fills, defaults.fill_seed);
  std::printf(
      "Wrote BENCH_compaction.json. Shape check: dynamic reduction should\n"
      "clear 25%% on every circuit. Exits 1 (COVERAGE: on stderr) if the\n"
      "static or dynamic shipped coverage is below coverage_uncompacted.\n");
  return coverage_never_drops(rows) ? 0 : 1;
}
