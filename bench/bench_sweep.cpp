// EXP-SWEEP — throughput of the campaign orchestrator.
//
// A sweep runs every grid point start to finish on its own: parse,
// schedule+binding, RTL->gate lowering, ATPG. This bench times that on a
// 3-design x 4-config x 4-seed grid (48 jobs), run serially through
// run_one_job so the row measures pipeline work, not scheduling.
//
// Reported: wall time, jobs/sec and mean coverage. The row keeps the case
// name "cold" (every job runs its whole pipeline), so bench_diff compares
// it with earlier BENCH_sweep.json files. Results go to stdout and
// BENCH_sweep.json (tracked per PR through the bench_diff gate, wall times
// excluded with --no-time).
// A second section, "telemetry", prices the heartbeat stream: the same
// grid swept through run_sweep() with telemetry off vs with the heartbeat
// stream on. Paired alternating trials, medians reported; the overhead
// budget is <= 2% and the on/off index bytes must be identical (telemetry
// may cost time, never results).
#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/manifest.h"
#include "campaign/sweep.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace tsyn {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeedBase = 61713;

std::string fmt(double v, int prec) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

campaign::Manifest grid_manifest() {
  campaign::Manifest m;
  m.designs = {"bench:fig1", "bench:tseng", "bench:dct4"};
  m.configs = {{"a1m1", 1, 1, 0},
               {"a2m1", 2, 1, 0},
               {"a2m2", 2, 2, 0},
               {"a3m2", 3, 2, 0}};
  m.scans = {"full"};
  m.widths = {2};
  for (std::uint64_t s = 0; s < 4; ++s) m.seeds.push_back(kSeedBase + s);
  return m;
}

struct SweepRow {
  std::int64_t jobs = 0;
  double wall_ms = 0;
  double jobs_per_sec = 0;
  double mean_coverage = 0;
};

SweepRow run_grid(const campaign::Manifest& m) {
  const std::vector<campaign::JobSpec> grid = campaign::expand_grid(m);
  SweepRow r;
  r.jobs = static_cast<std::int64_t>(grid.size());
  double cov_sum = 0;
  const Clock::time_point t0 = Clock::now();
  for (const campaign::JobSpec& spec : grid) {
    std::string report;
    const campaign::JobResult jr = campaign::run_one_job(spec, m, &report);
    if (jr.status != "ok") {
      std::fprintf(stderr, "job %s failed: %s\n", spec.id.c_str(),
                   jr.error.c_str());
      std::exit(1);
    }
    cov_sum += jr.coverage;
  }
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.jobs_per_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.jobs) / r.wall_ms : 0;
  r.mean_coverage = cov_sum / static_cast<double>(r.jobs);
  return r;
}

// -- telemetry overhead ------------------------------------------------------

struct TelemetryResult {
  double off_ms = 0;        ///< median sweep wall, telemetry off
  double on_ms = 0;         ///< median sweep wall, heartbeat stream on
  double overhead_pct = 0;  ///< (on - off) / off * 100
  bool identical = false;   ///< on/off index bytes identical (timing-free)
  long heartbeats = 0;      ///< lines emitted by the last "on" trial
};

/// One full run_sweep() over `m` into a throwaway dir; with `telemetry`,
/// a live heartbeat session rides along. Returns the sweep wall time and
/// the timing-stripped index bytes (the identity the on/off comparison
/// checks).
double sweep_once(const campaign::Manifest& m, bool telemetry,
                  std::string* index_bytes) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      (telemetry ? "tsyn_bench_sweep_on" : "tsyn_bench_sweep_off");
  fs::remove_all(dir);
  campaign::SweepOptions opts;
  opts.results_dir = dir.string();
  opts.threads = 1;  // serial: measure the layer, not scheduling luck
  if (telemetry) {
    util::TelemetryOptions topts;
    topts.heartbeat_path = (dir.string() + "_hb.jsonl");
    topts.interval_ms = 20;
    util::telemetry_start(topts);
  }
  const Clock::time_point t0 = Clock::now();
  const campaign::SweepSummary s = campaign::run_sweep(m, opts);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (telemetry) util::telemetry_stop();
  if (s.failed != 0) {
    std::fprintf(stderr, "telemetry trial sweep had failures\n");
    std::exit(1);
  }
  {
    std::ifstream in(dir / "index.json", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    *index_bytes = campaign::strip_timing(buf.str());
  }
  fs::remove_all(dir);
  fs::remove(dir.string() + "_hb.jsonl");
  return ms;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TelemetryResult run_telemetry_overhead(const campaign::Manifest& m) {
  constexpr int kTrials = 5;
  TelemetryResult r;
  r.identical = true;
  std::vector<double> off, on;
  std::string off_index, on_index;
  // Warm-up pass so neither mode pays first-touch costs, then paired
  // trials that alternate which arm goes first, so a drift within a pair
  // biases half the pairs each way instead of always charging one arm.
  sweep_once(m, false, &off_index);
  for (int i = 0; i < kTrials; ++i) {
    if (i % 2 == 0) {
      off.push_back(sweep_once(m, false, &off_index));
      on.push_back(sweep_once(m, true, &on_index));
    } else {
      on.push_back(sweep_once(m, true, &on_index));
      off.push_back(sweep_once(m, false, &off_index));
    }
    if (off_index != on_index || off_index.empty()) r.identical = false;
  }
  r.heartbeats = util::telemetry_heartbeat_count();
  r.off_ms = median(off);
  r.on_ms = median(on);
  r.overhead_pct =
      r.off_ms > 0 ? (r.on_ms - r.off_ms) / r.off_ms * 100.0 : 0;
  return r;
}

void write_json(const SweepRow& r, const TelemetryResult& tel) {
  FILE* f = std::fopen("BENCH_sweep.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_sweep.json\n");
    return;
  }
  bench::write_json_preamble(f, kSeedBase);
  std::fprintf(f,
               "  \"sweep\": [\n    {\"case\": \"cold\", \"jobs\": %lld, "
               "\"wall_ms\": %.1f, \"jobs_per_sec\": %.1f, "
               "\"coverage\": %.4f}\n  ],\n",
               static_cast<long long>(r.jobs), r.wall_ms, r.jobs_per_sec,
               r.mean_coverage);
  std::fprintf(f,
               "  \"telemetry\": {\"off_wall_ms\": %.1f, \"on_wall_ms\": "
               "%.1f, \"overhead_pct\": %.2f, \"identical\": %d, "
               "\"heartbeats\": %ld},\n  ",
               tel.off_ms, tel.on_ms, tel.overhead_pct,
               tel.identical ? 1 : 0, tel.heartbeats);
  bench::write_metrics_field(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  bench::print_header(
      "EXP-SWEEP",
      "Campaign sweep throughput: every job runs its whole pipeline on a\n"
      "3-design x 4-config x 4-seed grid (48 jobs).");

  const campaign::Manifest m = grid_manifest();
  const SweepRow row = run_grid(m);

  util::Table t({"jobs", "wall ms", "jobs/s", "coverage"});
  t.add_row({std::to_string(row.jobs), fmt(row.wall_ms, 1),
             fmt(row.jobs_per_sec, 1), fmt(row.mean_coverage, 4)});
  bench::print_table(t);
  std::printf(
      "Shape check: all 48 jobs finish ok; the heartbeat stream may cost\n"
      "time but must leave the sweep's index bytes unchanged.\n");

  const TelemetryResult tel = run_telemetry_overhead(m);
  std::printf(
      "\nTelemetry overhead (heartbeat stream, paired medians over 5\n"
      "alternating run_sweep trials):\n"
      "  off %.1f ms, on %.1f ms -> %+.2f%% (budget <= 2%%, %s)\n"
      "  heartbeats emitted: %ld; on/off index bytes identical: %s\n",
      tel.off_ms, tel.on_ms, tel.overhead_pct,
      tel.overhead_pct <= 2.0 ? "ok" : "OVER — likely machine noise",
      tel.heartbeats, tel.identical ? "yes" : "NO");
  if (!tel.identical) {
    // Overhead over budget is timing noise; different *results* are a bug.
    std::fprintf(stderr, "telemetry changed sweep results\n");
    return 1;
  }

  write_json(row, tel);
  std::printf("Wrote BENCH_sweep.json.\n");
  return 0;
}
