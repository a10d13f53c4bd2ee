// The campaign orchestrator: a memoizing batch sweep service over
// design x config grids.
//
// run_sweep() expands a manifest into its job grid and runs every job on
// the shared util::ThreadPool work queue. Jobs are isolated — a throwing
// job is caught, recorded as "status":"failed" with its error text, and
// never takes the sweep down — and share their pipeline prefixes through
// the content-addressed StageCache, so coverage of a 1000-point grid costs
// one CDFG parse per design, one schedule+binding per (design, config),
// and one RTL->gate lowering per (design, config, scan, width).
//
// Durability: every completed job appends one flushed JSONL record to
// <results>/journal.jsonl and streams its schema-1 report to
// <results>/<job-id>.json. A killed sweep therefore loses at most the
// in-flight jobs; resuming with SweepOptions::resume skips every
// journaled job whose report file still matches the journal's content
// hash (and whose spec hash still matches the manifest) and completes the
// remainder. When the grid is complete the orchestrator writes
// <results>/index.json — the deterministic grid summary (bench_diff-able
// against a checked-in baseline) — and <results>/sweep_stats.json — run
// mechanics (cache rates, journal hits, wall time) that legitimately vary
// between runs and are deliberately kept out of the index.
//
// Determinism contract: per-job reports contain no timestamps and every
// campaign is run with a serial inner engine, so the report bytes are a
// pure function of the job spec — re-running a manifest reproduces
// results/ byte-for-byte, and index.json is identical across interrupted+
// resumed and uninterrupted runs up to the per-job wall_ms field (compare
// with strip_timing()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.h"
#include "campaign/manifest.h"
#include "campaign/timeline.h"

namespace tsyn::campaign {

struct SweepOptions {
  std::string results_dir = "results";
  /// Max worker threads for the job queue (0 = the shared pool's width).
  /// Inner fault-sim/ATPG engines always run serial — parallelism comes
  /// from job-level fan-out, keeping every report thread-count-invariant.
  int threads = 0;
  /// Consult an existing journal: skip verified completed jobs, append the
  /// rest. Without this, a results dir that already has a journal is
  /// refused (overwriting finished work must be explicit).
  bool resume = false;
  /// Stop (cleanly, journal flushed) after this many completed jobs;
  /// 0 = run the whole grid. This is the kill-and-resume test hook: the
  /// index is only written when the grid actually completed.
  int max_jobs = 0;
  /// Non-empty: export a Chrome trace_event job timeline here (one track
  /// per pool worker slot, one span per executed job with stage
  /// sub-spans). Run-varying, like sweep_stats.json; written even for an
  /// incomplete (max_jobs-stopped) run so partial runs stay inspectable.
  std::string timeline_path;
};

/// One grid point's outcome. `status` is "ok" or "failed"; failed jobs
/// carry `error` and zeros elsewhere.
struct JobResult {
  JobSpec spec;
  std::string status = "ok";
  std::string error;
  std::int64_t gates = 0;
  std::int64_t faults = 0;
  std::int64_t patterns = 0;
  std::int64_t cubes = 0;
  double coverage = 0.0;
  double efficiency = 0.0;
  double wall_ms = 0.0;
  std::string result_hash;       ///< FNV-1a hex of the report file bytes
  std::string result_spec_hash;  ///< job identity the journal matches on
  bool from_journal = false;     ///< skipped via journal lookup, not re-run
};

struct SweepSummary {
  std::vector<JobResult> jobs;  ///< sorted by job id, one per grid point
  std::string manifest_hash;
  CacheStats cache;
  std::int64_t journal_hits = 0;  ///< jobs satisfied from the journal
  std::int64_t ran = 0;           ///< jobs actually executed this run
  std::int64_t failed = 0;        ///< jobs with status "failed"
  double wall_ms = 0.0;
  /// False when max_jobs stopped the run early; the index is not written.
  bool complete = true;

  std::int64_t total() const {
    return static_cast<std::int64_t>(jobs.size());
  }
};

/// Thrown for orchestration-level failures: unwritable results dir,
/// journal/manifest mismatch, resume without a journal, refusing to
/// clobber. (Per-job failures are data, not exceptions.)
class SweepError : public std::runtime_error {
 public:
  explicit SweepError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Runs the sweep. Progress is published on the "sweep.jobs" counter and
/// heartbeat phase labels while jobs are in flight (util/telemetry.h).
SweepSummary run_sweep(const Manifest& m, const SweepOptions& opts);

/// The deterministic grid index ("schema": 2, bench_diff-compatible; rows
/// keyed by "case" so fleet-wide diffs match jobs by id).
std::string index_to_json(const SweepSummary& s);

/// `index_to_json` output with every "wall_ms" value zeroed — the identity
/// key under which an interrupted+resumed run must equal an uninterrupted
/// one.
std::string strip_timing(const std::string& index_json);

/// Run mechanics (cache hit/miss, journal hits, threads, wall time) — the
/// legitimately run-dependent numbers, kept out of index.json.
std::string sweep_stats_to_json(const SweepSummary& s);

/// Runs one job against a caller-provided cache, no files involved.
/// Exposed for tests and the bench; run_sweep wraps this with the journal
/// and report plumbing. Returns the report JSON via `report_json`. When
/// `stages` is non-null, each pipeline stage appends a StageSpan timed
/// relative to the job start and annotated with its cache outcome
/// ("miss"/"hit"/"coalesced"; "none" for the uncached atpg stage).
JobResult run_one_job(const JobSpec& spec, const Manifest& m,
                      StageCache& cache, std::string* report_json,
                      std::vector<StageSpan>* stages = nullptr);

}  // namespace tsyn::campaign
