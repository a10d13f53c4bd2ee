// Shared setup for the experiment benches: the benchmark suite at the
// resource allocations used throughout, and small helpers for reporting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cdfg/benchmarks.h"
#include "graph/mfvs.h"
#include "hls/synthesis.h"
#include "rtl/sgraph.h"
#include "util/metrics.h"
#include "util/table.h"

namespace tsyn::bench {

/// Standard allocation used by the experiments: 2 ALUs, 2 multipliers
/// (comparable to the surveyed papers' setups).
inline hls::Resources standard_resources() {
  return hls::Resources{{cdfg::FuType::kAlu, 2},
                        {cdfg::FuType::kMultiplier, 2}};
}

inline hls::Synthesis synthesize_standard(const cdfg::Cdfg& g) {
  hls::SynthesisOptions opts;
  opts.resources = standard_resources();
  return hls::synthesize(g, opts);
}

inline void print_header(const std::string& exp_id,
                         const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", exp_id.c_str(), claim.c_str());
}

inline void print_table(const util::Table& t) {
  std::fputs(t.to_string().c_str(), stdout);
  std::fputs("\n", stdout);
}

/// Table cell for an MFVS size: "N" when proven minimum, "<=N" when the
/// solver's branch budget ran out and N is only an upper bound.
inline std::string mfvs_cell(const graph::MfvsResult& r) {
  const std::string n = std::to_string(r.set.size());
  return r.optimal ? n : "<=" + n;
}

/// Cap on the loops a bench enumerates with `rtl::analyze_loops`.
inline constexpr std::size_t kMaxLoops = 10000;

/// Table cell for the number of enumerated loops of class `kind`: "N", or
/// ">=N" when the enumeration stopped at `kMaxLoops` loops and N is only a
/// lower bound.
inline std::string loop_count_cell(const std::vector<rtl::DatapathLoop>& loops,
                                   rtl::LoopClass kind) {
  const auto n = std::count_if(
      loops.begin(), loops.end(),
      [kind](const rtl::DatapathLoop& l) { return l.kind == kind; });
  return (loops.size() >= kMaxLoops ? ">=" : "") + std::to_string(n);
}

/// Exit status of a bench whose claim rests on minimum FVS sizes: 1, with
/// a note on stderr, when any of them is only an upper bound.
inline int mfvs_exit_status(bool all_optimal) {
  if (all_optimal) return 0;
  std::fputs("UNPROVEN: an MFVS in the table is an upper bound (<=N), "
             "not a proven minimum\n",
             stderr);
  return 1;
}

/// Per-campaign cost of one instrumentation layer, off vs on.
struct PairedTiming {
  double off_ms = 0, on_ms = 0;  ///< best pass of each arm
  double overhead_pct = 0;  ///< median paired difference / best off pass
  /// Interquartile range of the paired differences / best off pass: the
  /// spread a budget verdict on overhead_pct has to clear.
  double overhead_iqr_pct = 0;
  /// Median paired off/on ratio — a speedup when `on` is the faster arm —
  /// and the interquartile range of those ratios.
  double ratio = 0, ratio_iqr = 0;
};

/// The paired off/on overhead protocol. The host may slow down for
/// stretches longer than a whole pass, so independent best-of sampling of
/// the two arms is noise-bound; instead each of `reps` repetitions times
/// an adjacent off/on pair and the overhead is the MEDIAN of the paired
/// differences — a host-wide slow phase hits both halves of a pair and
/// cancels, and the median discards the pairs a scheduling spike split.
/// The arm order alternates so a drift within the pair (cache warmup, a
/// ramping background task) biases half the pairs each way instead of
/// always charging the second arm. `off` and `on` each run one pass of
/// `reps_inner` campaigns and return its wall ms, so an arm's setup can
/// stay outside its timed region; the result is per campaign. Quartiles
/// are nearest-rank over the sorted differences (and ratios).
inline PairedTiming paired_overhead(const std::function<double()>& off,
                                    const std::function<double()>& on,
                                    int reps, int reps_inner) {
  double best_off = 1e300, best_on = 1e300;
  std::vector<double> diffs, ratios;
  for (int t = 0; t < reps; ++t) {
    double off_ms, on_ms;
    if (t % 2 == 0) {
      off_ms = off();
      on_ms = on();
    } else {
      on_ms = on();
      off_ms = off();
    }
    best_off = std::min(best_off, off_ms);
    best_on = std::min(best_on, on_ms);
    diffs.push_back(on_ms - off_ms);
    ratios.push_back(on_ms > 0 ? off_ms / on_ms : 0);
  }
  PairedTiming p;
  p.off_ms = best_off / reps_inner;
  p.on_ms = best_on / reps_inner;
  std::sort(diffs.begin(), diffs.end());
  const std::size_t n = diffs.size();
  const auto pct = [&](double diff) {
    return p.off_ms > 0 ? 100.0 * diff / reps_inner / p.off_ms : 0;
  };
  p.overhead_pct = pct(diffs[n / 2]);
  p.overhead_iqr_pct = pct(diffs[3 * n / 4] - diffs[n / 4]);
  std::sort(ratios.begin(), ratios.end());
  p.ratio = ratios[n / 2];
  p.ratio_iqr = ratios[3 * n / 4] - ratios[n / 4];
  return p;
}

/// Version of the BENCH_*.json layout contract. Bump when any bench
/// writer's field set changes incompatibly, so per-PR trajectory tooling
/// can tell a schema change from a regression.
inline constexpr int kBenchJsonSchema = 2;

/// Opens a BENCH_*.json object with the provenance fields every bench
/// writer must carry: "schema" (kBenchJsonSchema) and "seed" (the RNG seed
/// the run's workload/stimulus was generated from). Without them a
/// trajectory across PRs is ambiguous — a changed number could be a real
/// regression, a layout change, or just a reseeded workload. The caller
/// continues the object (no closing brace is written).
inline void write_json_preamble(std::FILE* f, std::uint64_t seed) {
  std::fprintf(f, "{\n  \"schema\": %d,\n  \"seed\": %llu,\n",
               kBenchJsonSchema, static_cast<unsigned long long>(seed));
}

/// Embeds the process-wide metrics registry into an open BENCH_*.json
/// stream as a `"metrics": {...}` field (no leading indent, no trailing
/// comma/newline — the caller owns the surrounding object syntax). Gives
/// every bench's JSON the same run-report section the CLI's --metrics
/// emits, so per-PR perf tracking sees engine work counters (events
/// processed, faults dropped, shard imbalance) next to the wall times.
inline void write_metrics_field(std::FILE* f) {
  const std::string j = util::metrics().to_json();
  std::fprintf(f, "\"metrics\": %s", j.c_str());
}

}  // namespace tsyn::bench
