// Structured comparison of two BENCH_*.json artifacts (schema 2).
//
// The perf-bench harness writes machine-readable baselines; bench_diff is
// the gate that makes them actionable: it walks a baseline and a fresh
// run together, classifies every leaf by its key name (coverage-like
// fields must not drop, time-like fields may grow only within a
// tolerance, workload identity fields must match exactly), and reports
// regressions vs. informational drift. The CLI wrapper in tools/ turns
// the result into an exit code CI can gate on.
#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace tsyn::observe {

struct BenchDiffOptions {
  /// Allowed relative growth of *_ms fields, in percent. Benchmarks on
  /// shared CI runners jitter hard; the default is deliberately loose.
  double time_tolerance_pct = 50.0;
  /// Absolute slack when comparing quality values (coverage, counts).
  double value_tolerance = 1e-9;
  /// When false, *_ms fields are skipped entirely (--no-time).
  bool check_time = true;
  /// When true, rows/fields present in the baseline but missing from the
  /// fresh run are notes instead of regressions.
  bool allow_missing = false;
};

struct BenchDiffResult {
  /// False when the two files disagree on "schema" (or a file is not an
  /// object) — comparison is meaningless, CLI exits 2.
  bool schema_ok = true;
  std::string schema_error;
  /// Failures: quality drops, out-of-tolerance slowdowns, changed
  /// workload identity, missing rows.
  std::vector<std::string> regressions;
  /// Non-gating observations (improvements, new fields, informational
  /// drift).
  std::vector<std::string> notes;

  bool ok() const { return schema_ok && regressions.empty(); }
};

/// Compares `fresh` against `baseline`.
BenchDiffResult diff_bench_json(const util::Json& baseline,
                                const util::Json& fresh,
                                const BenchDiffOptions& opts = {});

/// The canonical human rendering of a diff result — "FAIL ..." lines,
/// "note ..." lines (suppressed when `quiet`), and the one-line summary
/// tagged with `label`, as the bench_diff CLI prints it.
std::string diff_result_to_text(const BenchDiffResult& res, bool quiet,
                                const std::string& label);

}  // namespace tsyn::observe
