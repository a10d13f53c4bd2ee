// EXP-SWEEP — throughput of the campaign orchestrator's stage cache.
//
// The campaign orchestrator exists to make design x config sweeps cheap:
// jobs that share a (design, schedule-config, scan, width) prefix should
// share one parse, one schedule+binding, and one RTL->gate lowering. This
// bench quantifies what that buys on a 3-design x 4-config grid (x 4 X-fill
// seeds = 48 jobs sharing 12 pipeline prefixes):
//
//   cold  every job runs its own private StageCache — the cost a sweep
//         would pay with no memoization (12 parses become 48, etc.);
//   memo  all jobs share one StageCache — the orchestrator's actual shape.
//
// Reported per mode: wall time, jobs/sec, stage-compute counts, cache hit
// rate; plus the memo/cold speedup. Results go to stdout and
// BENCH_sweep.json (tracked per PR through the bench_diff gate, wall times
// excluded with --no-time).
// A second section, "telemetry", prices the fleet-observability layer
// itself: the same grid swept through run_sweep() with everything off vs
// with the heartbeat stream, job rollup, and timeline recording on.
// Paired alternating trials, medians reported; the overhead budget is
// <= 2% and the on/off index bytes must be identical (telemetry may cost
// time, never results).
#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cache.h"
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

struct ModeResult {
  std::string mode;
  std::int64_t jobs = 0;
  double wall_ms = 0;
  double jobs_per_sec = 0;
  std::int64_t parse_runs = 0;   ///< stage computations actually executed
  std::int64_t synth_runs = 0;
  std::int64_t expand_runs = 0;
  double hit_rate = 0;
  double mean_coverage = 0;
};

ModeResult run_mode(const campaign::Manifest& m, bool shared_cache) {
  const std::vector<campaign::JobSpec> grid = campaign::expand_grid(m);
  ModeResult r;
  r.mode = shared_cache ? "memo" : "cold";
  r.jobs = static_cast<std::int64_t>(grid.size());

  campaign::StageCache shared;
  campaign::CacheStats cold_totals;
  double cov_sum = 0;
  const Clock::time_point t0 = Clock::now();
  for (const campaign::JobSpec& spec : grid) {
    std::string report;
    if (shared_cache) {
      const campaign::JobResult jr =
          campaign::run_one_job(spec, m, shared, &report);
      if (jr.status != "ok") {
        std::fprintf(stderr, "job %s failed: %s\n", spec.id.c_str(),
                     jr.error.c_str());
        std::exit(1);
      }
      cov_sum += jr.coverage;
    } else {
      campaign::StageCache own;  // private cache: nothing is ever shared
      const campaign::JobResult jr =
          campaign::run_one_job(spec, m, own, &report);
      if (jr.status != "ok") {
        std::fprintf(stderr, "job %s failed: %s\n", spec.id.c_str(),
                     jr.error.c_str());
        std::exit(1);
      }
      cov_sum += jr.coverage;
      const campaign::CacheStats s = own.stats();
      cold_totals.parse_misses += s.parse_misses;
      cold_totals.synth_misses += s.synth_misses;
      cold_totals.expand_misses += s.expand_misses;
    }
  }
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.jobs_per_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.jobs) / r.wall_ms : 0;
  const campaign::CacheStats s = shared_cache ? shared.stats() : cold_totals;
  r.parse_runs = s.parse_misses;
  r.synth_runs = s.synth_misses;
  r.expand_runs = s.expand_misses;
  const std::int64_t lookups = s.hits() + s.misses();
  r.hit_rate = lookups > 0
                   ? static_cast<double>(s.hits()) /
                         static_cast<double>(lookups)
                   : 0;
  r.mean_coverage = cov_sum / static_cast<double>(r.jobs);
  return r;
}

// -- telemetry overhead ------------------------------------------------------

struct TelemetryResult {
  double off_ms = 0;        ///< median sweep wall, telemetry off
  double on_ms = 0;         ///< median sweep wall, heartbeat+timeline on
  double overhead_pct = 0;  ///< (on - off) / off * 100
  bool identical = false;   ///< on/off index bytes identical (timing-free)
  long heartbeats = 0;      ///< lines emitted by the last "on" trial
};

/// One full run_sweep() over `m` into a throwaway dir; with `telemetry`,
/// a live heartbeat session plus timeline export ride along. Returns the
/// sweep wall time and the timing-stripped index bytes (the identity the
/// on/off comparison checks).
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
    opts.timeline_path = (dir / "timeline.json").string();
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

void write_json(const std::vector<ModeResult>& rows, double speedup,
                const TelemetryResult& tel) {
  FILE* f = std::fopen("BENCH_sweep.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_sweep.json\n");
    return;
  }
  bench::write_json_preamble(f, kSeedBase);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModeResult& r = rows[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"jobs\": %lld, \"wall_ms\": %.1f, "
                 "\"jobs_per_sec\": %.1f, \"parse_runs\": %lld, "
                 "\"synth_runs\": %lld, \"expand_runs\": %lld, "
                 "\"hit_rate\": %.4f, \"coverage\": %.4f}%s\n",
                 r.mode.c_str(), static_cast<long long>(r.jobs), r.wall_ms,
                 r.jobs_per_sec, static_cast<long long>(r.parse_runs),
                 static_cast<long long>(r.synth_runs),
                 static_cast<long long>(r.expand_runs), r.hit_rate,
                 r.mean_coverage, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"memo_speedup\": %.2f,\n", speedup);
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
      "Campaign stage cache: memoized vs cold job throughput on a\n"
      "3-design x 4-config x 4-seed grid (48 jobs, 12 shared prefixes).");

  const campaign::Manifest m = grid_manifest();
  // Cold first so the memo pass cannot warm anything for it.
  const ModeResult cold = run_mode(m, /*shared_cache=*/false);
  const ModeResult memo = run_mode(m, /*shared_cache=*/true);
  const double speedup = memo.wall_ms > 0 ? cold.wall_ms / memo.wall_ms : 0;

  util::Table t({"mode", "jobs", "wall ms", "jobs/s", "parse", "synth",
                 "expand", "hit rate", "coverage"});
  for (const ModeResult& r : {cold, memo}) {
    t.add_row({r.mode, std::to_string(r.jobs), fmt(r.wall_ms, 1),
               fmt(r.jobs_per_sec, 1), std::to_string(r.parse_runs),
               std::to_string(r.synth_runs), std::to_string(r.expand_runs),
               fmt(r.hit_rate, 3), fmt(r.mean_coverage, 4)});
  }
  bench::print_table(t);
  std::printf("memo speedup over cold: %.2fx\n", speedup);
  std::printf(
      "Shape check: memo must run exactly 3/12/12 parse/synth/expand\n"
      "stages (one per shared prefix) vs the cold 48/48/48, at identical\n"
      "coverage — memoization changes cost, never results.\n");

  if (memo.parse_runs != 3 || memo.synth_runs != 12 ||
      memo.expand_runs != 12 || cold.parse_runs != 48) {
    std::fprintf(stderr, "stage-count shape check FAILED\n");
    return 1;
  }
  if (memo.mean_coverage != cold.mean_coverage) {
    std::fprintf(stderr, "coverage diverged between modes\n");
    return 1;
  }

  const TelemetryResult tel = run_telemetry_overhead(m);
  std::printf(
      "\nTelemetry overhead (heartbeat + job rollup + timeline, paired\n"
      "medians over 5 alternating run_sweep trials):\n"
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

  write_json({cold, memo}, speedup, tel);
  std::printf("Wrote BENCH_sweep.json.\n");
  return 0;
}
