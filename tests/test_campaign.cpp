// Campaign orchestrator tests: manifest validation, stable hashing, the
// miss-coalescing stage cache, and the sweep's durability/determinism
// contracts (journal resume, byte-identical reruns, failed-job isolation).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "campaign/cache.h"
#include "campaign/manifest.h"
#include "campaign/sweep.h"
#include "observe/bench_diff.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace tsyn::campaign {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Fresh scratch dir per test under the gtest temp root.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// util::Fnv1a
// ---------------------------------------------------------------------------

TEST(Fnv1a, MatchesReferenceVectors) {
  // Standard FNV-1a 64-bit vectors.
  EXPECT_EQ(util::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, LengthFramingSeparatesAdjacentStrings) {
  const auto ab_c = util::Fnv1a().str("ab").str("c").value();
  const auto a_bc = util::Fnv1a().str("a").str("bc").value();
  EXPECT_NE(ab_c, a_bc);
}

TEST(Fnv1a, HexIsSixteenLowercaseDigits) {
  const std::string h = util::Fnv1a().str("x").hex();
  EXPECT_EQ(h.size(), 16u);
  for (char c : h)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << h;
  EXPECT_EQ(util::Fnv1a::hash_hex(0), "0000000000000000");
  EXPECT_EQ(util::Fnv1a::hash_hex(0xdeadbeefull), "00000000deadbeef");
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

Manifest tiny_manifest() {
  return parse_manifest(R"({
    "schema": 1,
    "designs": ["bench:fig1"],
    "configs": [{"name": "a1m1", "alu": 1, "mul": 1}],
    "scan": ["full"],
    "widths": [2],
    "seeds": [7]
  })");
}

TEST(Manifest, ParsesWithDefaults) {
  const Manifest m = parse_manifest(R"({
    "schema": 1,
    "designs": ["bench:fig1", "bench:tseng"],
    "configs": [{"name": "small", "alu": 1, "mul": 1},
                {"name": "big"}]
  })");
  EXPECT_EQ(m.designs.size(), 2u);
  EXPECT_EQ(m.configs[1].alu, 2);  // default allocation
  EXPECT_EQ(m.scans, std::vector<std::string>{"full"});
  EXPECT_EQ(m.widths, std::vector<int>{4});
  EXPECT_EQ(m.seeds, std::vector<std::uint64_t>{0xF111});
  EXPECT_EQ(m.compact, "static");
  EXPECT_EQ(m.xfill, "random");
}

TEST(Manifest, RejectsStructuralErrors) {
  EXPECT_THROW(parse_manifest("[]"), ManifestError);
  EXPECT_THROW(parse_manifest(R"({"designs": ["bench:fig1"]})"),
               ManifestError);  // missing schema
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 2, "designs": ["bench:fig1"],
                       "configs": [{"name": "a"}]})"),
               ManifestError);  // wrong schema
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": [], "configs": [{"name":"a"}]})"),
               ManifestError);  // empty designs
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1"],
                       "configs": [{"name": "a", "alu": 2.5}]})"),
               ManifestError);  // non-integer count
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1"],
                       "configs": [{"name": "a"}, {"name": "a"}]})"),
               ManifestError);  // duplicate config name
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1", "fig1.cdfg"],
                       "configs": [{"name": "a"}]})"),
               ManifestError);  // colliding design stems
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1"],
                       "configs": [{"name": "a"}], "scan": ["sideways"]})"),
               ManifestError);  // unknown scan policy
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1"],
                       "configs": [{"name": "a"}], "widths": [0]})"),
               ManifestError);  // width out of range
  EXPECT_THROW(parse_manifest(
                   R"({"schema": 1, "designs": ["bench:fig1"],
                       "configs": [{"name": "a"}], "surprise": true})"),
               ManifestError);  // unknown member
}

TEST(Manifest, DesignStems) {
  EXPECT_EQ(design_stem("bench:diffeq"), "diffeq");
  EXPECT_EQ(design_stem("path/to/my design.cdfg"), "my_design");
  // Dots map to '_': job ids are dot-separated, a dotted stem would break
  // their grammar.
  EXPECT_EQ(design_stem("loop.v2.cdfg"), "loop_v2");
  EXPECT_EQ(design_stem(""), "design");
}

TEST(Manifest, GridIsSortedCrossProduct) {
  Manifest m = tiny_manifest();
  m.designs = {"bench:fig1", "bench:tseng"};
  m.scans = {"full", "none"};
  m.seeds = {7, 8, 9};
  const std::vector<JobSpec> grid = expand_grid(m);
  EXPECT_EQ(grid.size(), 2u * 1u * 2u * 1u * 3u);
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_LT(grid[i - 1].id, grid[i].id);
  EXPECT_EQ(grid.front().id, "fig1.a1m1.full.w2.s7");
}

TEST(Manifest, ContentHashCoversEveryAxisAndKnob) {
  const Manifest base = tiny_manifest();
  const std::string h0 = base.content_hash();
  EXPECT_EQ(h0, base.content_hash());  // stable
  Manifest m = base;
  m.seeds.push_back(9);
  EXPECT_NE(m.content_hash(), h0);
  m = base;
  m.xfill = "adjacent";
  EXPECT_NE(m.content_hash(), h0);
  m = base;
  m.seq_fault_cap = 10;
  EXPECT_NE(m.content_hash(), h0);
  m = base;
  m.configs[0].mul = 3;
  EXPECT_NE(m.content_hash(), h0);
}

// ---------------------------------------------------------------------------
// MemoTable / StageCache
// ---------------------------------------------------------------------------

TEST(StageCache, CoalescesConcurrentMisses) {
  StageCache cache;
  std::atomic<int> computed{0};
  util::ThreadPool::shared().run(32, 8, [&](int, int) {
    auto v = cache.parse.get_or_compute(42, [&] {
      ++computed;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return std::make_shared<const cdfg::Cdfg>("x");
    });
    EXPECT_EQ(v->name(), "x");
  });
  EXPECT_EQ(computed.load(), 1);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.parse_misses, 1);
  EXPECT_EQ(s.parse_hits, 31);
}

TEST(StageCache, ExceptionPoisonsTheEntry) {
  StageCache cache;
  int calls = 0;
  auto boom = [&]() -> std::shared_ptr<const cdfg::Cdfg> {
    ++calls;
    throw std::runtime_error("unparsable");
  };
  EXPECT_THROW(cache.parse.get_or_compute(7, boom), std::runtime_error);
  EXPECT_THROW(cache.parse.get_or_compute(7, boom), std::runtime_error);
  EXPECT_EQ(calls, 1);  // deterministic failure: never recomputed
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

/// 100 jobs sharing 4 (design, config) prefixes — the ISSUE's cache-economy
/// grid, scaled to the ≤20-misses bound with room to spare.
Manifest economy_manifest() {
  Manifest m = parse_manifest(R"({
    "schema": 1,
    "designs": ["bench:fig1", "bench:tseng"],
    "configs": [{"name": "a1m1", "alu": 1, "mul": 1},
                {"name": "a2m2", "alu": 2, "mul": 2}],
    "scan": ["full"],
    "widths": [2]
  })");
  m.seeds.clear();
  for (std::uint64_t s = 0; s < 25; ++s) m.seeds.push_back(s);
  return m;
}

TEST(Sweep, StageCacheBoundsWorkByGridStructure) {
  const Manifest m = economy_manifest();
  SweepOptions opts;
  opts.results_dir = scratch("economy").string();
  const SweepSummary s = run_sweep(m, opts);
  ASSERT_GE(s.total(), 100);
  EXPECT_EQ(s.failed, 0);
  // The acceptance bound: at most 20 parses / 20 lowers on a >= 100 job
  // grid with <= 20 shared prefixes. Structurally we expect exactly
  // 2 / 4 / 4 (designs / design x config / ... x scan x width).
  EXPECT_LE(s.cache.parse_misses, 20);
  EXPECT_LE(s.cache.expand_misses, 20);
  EXPECT_EQ(s.cache.parse_misses, 2);
  EXPECT_EQ(s.cache.synth_misses, 4);
  EXPECT_EQ(s.cache.expand_misses, 4);
  // Every other stage lookup was a hit; per-job ATPG still ran 100 times.
  EXPECT_EQ(s.cache.parse_hits + s.cache.parse_misses, s.total());
  for (const JobResult& r : s.jobs) {
    EXPECT_EQ(r.status, "ok") << r.spec.id << ": " << r.error;
    EXPECT_GT(r.coverage, 0.9) << r.spec.id;
  }
}

TEST(Sweep, ResumedRerunIsAllJournalHitsAndByteIdentical) {
  Manifest m = economy_manifest();
  m.seeds.resize(3);  // 12 jobs is plenty for identity checking
  const fs::path dir = scratch("rerun");
  SweepOptions opts;
  opts.results_dir = dir.string();
  const SweepSummary first = run_sweep(m, opts);
  ASSERT_EQ(first.failed, 0);
  ASSERT_TRUE(first.complete);

  std::map<std::string, std::string> bytes;
  for (const auto& e : fs::directory_iterator(dir))
    bytes[e.path().filename().string()] = slurp(e.path());

  opts.resume = true;
  const SweepSummary second = run_sweep(m, opts);
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(second.journal_hits, second.total());
  EXPECT_EQ(second.cache.misses(), 0);  // nothing was even looked up

  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name == "sweep_stats.json") continue;  // run-varying by design
    EXPECT_EQ(slurp(e.path()), bytes[name]) << name << " changed on rerun";
  }
}

TEST(Sweep, KillAndResumeReproducesTheUninterruptedIndex) {
  Manifest m = economy_manifest();
  m.seeds.resize(4);  // 16 jobs
  const fs::path uncut = scratch("uncut");
  SweepOptions opts;
  opts.results_dir = uncut.string();
  const SweepSummary full = run_sweep(m, opts);
  ASSERT_TRUE(full.complete);

  // Partial run: stop after 5 jobs, then simulate a kill mid-write by
  // tearing the journal's trailing bytes.
  const fs::path cut = scratch("cut");
  SweepOptions part;
  part.results_dir = cut.string();
  part.max_jobs = 5;
  const SweepSummary partial = run_sweep(m, part);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.ran, 5);
  EXPECT_FALSE(fs::exists(cut / "index.json"));
  {
    std::string j = slurp(cut / "journal.jsonl");
    ASSERT_GT(j.size(), 30u);
    std::ofstream out(cut / "journal.jsonl", std::ios::binary);
    out << j.substr(0, j.size() - 17);  // torn final record
  }

  SweepOptions resume;
  resume.results_dir = cut.string();
  resume.resume = true;
  const SweepSummary resumed = run_sweep(m, resume);
  EXPECT_TRUE(resumed.complete);
  // 4 intact journal records survive the tear; the torn one re-runs.
  EXPECT_EQ(resumed.journal_hits, 4);
  EXPECT_EQ(resumed.ran, 12);
  EXPECT_EQ(strip_timing(slurp(cut / "index.json")),
            strip_timing(slurp(uncut / "index.json")));
  // Per-job reports are timestamp-free, so they are fully identical.
  for (const JobResult& r : full.jobs)
    EXPECT_EQ(slurp(cut / (r.spec.id + ".json")),
              slurp(uncut / (r.spec.id + ".json")))
        << r.spec.id;
}

TEST(Sweep, FailedJobIsIsolatedAndJournaled) {
  Manifest m = parse_manifest(R"({
    "schema": 1,
    "designs": ["bench:fig1", "/nonexistent/broken.cdfg"],
    "configs": [{"name": "a1m1", "alu": 1, "mul": 1}],
    "scan": ["full"],
    "widths": [2],
    "seeds": [7]
  })");
  const fs::path dir = scratch("failiso");
  SweepOptions opts;
  opts.results_dir = dir.string();
  const SweepSummary s = run_sweep(m, opts);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.failed, 1);
  ASSERT_EQ(s.jobs.size(), 2u);
  const JobResult& bad = s.jobs[0];  // "broken" sorts before "fig1"
  EXPECT_EQ(bad.status, "failed");
  EXPECT_NE(bad.error.find("cannot open"), std::string::npos) << bad.error;
  EXPECT_EQ(s.jobs[1].status, "ok");
  // The failure is a first-class artifact: report written, index row kept.
  EXPECT_TRUE(fs::exists(dir / (bad.spec.id + ".json")));
  const std::string index = slurp(dir / "index.json");
  EXPECT_NE(index.find("\"status\": \"failed\""), std::string::npos);

  // A failed job is deterministic, so a resume does NOT retry it.
  opts.resume = true;
  const SweepSummary again = run_sweep(m, opts);
  EXPECT_EQ(again.ran, 0);
  EXPECT_EQ(again.journal_hits, 2);
}

TEST(Sweep, SequentialJobsRunUnderTheSeqBudgets) {
  Manifest m = tiny_manifest();
  m.scans = {"none"};  // unscanned state -> time-frame-expansion ATPG
  m.seq_fault_cap = 8;
  m.seq_max_frames = 3;
  m.seq_backtrack_limit = 50;
  StageCache cache;
  std::string report;
  const JobResult r = run_one_job(expand_grid(m)[0], m, cache, &report);
  EXPECT_EQ(r.status, "ok") << r.error;
  EXPECT_EQ(r.faults, 8);  // the cap bounded the target list
  EXPECT_EQ(r.patterns, 0);  // sequential jobs report coverage only
  EXPECT_NE(report.find("\"compact\": \"seq-tfe\""), std::string::npos);
}

TEST(Sweep, RefusesClobberAndForeignJournals) {
  Manifest m = tiny_manifest();
  const fs::path dir = scratch("guard");
  SweepOptions opts;
  opts.results_dir = dir.string();
  run_sweep(m, opts);
  // Same dir without --resume: refused.
  EXPECT_THROW(run_sweep(m, opts), SweepError);
  // Resume under a different manifest: refused.
  Manifest other = m;
  other.seeds = {12345};
  SweepOptions resume = opts;
  resume.resume = true;
  EXPECT_THROW(run_sweep(other, resume), SweepError);
  // Resume with no journal at all: refused.
  SweepOptions fresh;
  fresh.results_dir = scratch("guard_empty").string();
  fresh.resume = true;
  EXPECT_THROW(run_sweep(m, fresh), SweepError);
}

TEST(Sweep, TimelineReconcilesWithTheJournal) {
  Manifest m = economy_manifest();
  m.seeds.resize(3);  // 12 jobs
  const fs::path dir = scratch("timeline");
  SweepOptions opts;
  opts.results_dir = dir.string();
  opts.timeline_path = (dir / "timeline.json").string();
  opts.threads = 2;
  const SweepSummary s = run_sweep(m, opts);
  ASSERT_TRUE(s.complete);
  ASSERT_EQ(s.failed, 0);

  const util::Json doc = util::Json::parse(slurp(dir / "timeline.json"));
  const util::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Every executed job has exactly one "job" span; each stage sub-span
  // nests inside its job's [t0, t1] on the same track and carries a cache
  // annotation; tracks never exceed the requested thread count.
  std::map<std::string, const util::Json*> job_spans;
  std::int64_t stage_spans = 0;
  for (const util::Json& ev : events->arr) {
    const util::Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str != "X") continue;
    const util::Json* cat = ev.find("cat");
    ASSERT_NE(cat, nullptr);
    const int tid = static_cast<int>(ev.find("tid")->number);
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 2);
    if (cat->str == "job") {
      const std::string& id = ev.find("name")->str;
      EXPECT_TRUE(job_spans.emplace(id, &ev).second)
          << "duplicate job span " << id;
      EXPECT_EQ(ev.find("args")->find("status")->str, "ok");
    } else {
      ASSERT_EQ(cat->str, "stage");
      ++stage_spans;
      const std::string& stage = ev.find("name")->str;
      EXPECT_TRUE(stage == "parse" || stage == "synth" ||
                  stage == "expand" || stage == "atpg")
          << stage;
      const std::string& cache = ev.find("args")->find("cache")->str;
      if (stage == "atpg")
        EXPECT_EQ(cache, "none");
      else
        EXPECT_TRUE(cache == "hit" || cache == "miss" || cache == "coalesced")
            << stage << ": " << cache;
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(job_spans.size()), s.ran);
  EXPECT_EQ(stage_spans, s.ran * 4);  // parse, synth, expand, atpg per job
  for (const JobResult& r : s.jobs) {
    if (r.from_journal) continue;
    EXPECT_TRUE(job_spans.count(r.spec.id)) << r.spec.id;
  }

  // Stage spans fit inside their job span (matched by track + overlap).
  for (const util::Json& ev : events->arr) {
    const util::Json* cat = ev.find("cat");
    if (!cat || cat->str != "stage") continue;
    const double ts = ev.find("ts")->number;
    const double dur = ev.find("dur")->number;
    const int tid = static_cast<int>(ev.find("tid")->number);
    bool contained = false;
    for (const auto& [id, job] : job_spans) {
      if (static_cast<int>(job->find("tid")->number) != tid) continue;
      const double jts = job->find("ts")->number;
      const double jdur = job->find("dur")->number;
      // One-decimal µs rounding can push a boundary by 0.1.
      if (ts >= jts - 0.1 && ts + dur <= jts + jdur + 0.2) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << ev.find("name")->str << " span at ts=" << ts;
  }
}

/// bench_diff reads a sweep's index.json as it stands: the run diffed
/// against itself is clean, and edited copies gate exactly as a later run
/// with those results would.
TEST(Sweep, BenchDiffGatesIndexRegressions) {
  Manifest m = economy_manifest();
  m.seeds.resize(1);  // 4 jobs
  const fs::path dir = scratch("benchdiff");
  SweepOptions opts;
  opts.results_dir = dir.string();
  const SweepSummary s = run_sweep(m, opts);
  ASSERT_TRUE(s.complete);
  ASSERT_EQ(s.failed, 0);
  const util::Json index = util::Json::parse(slurp(dir / "index.json"));
  const auto json = [](const SweepSummary& x) {
    return util::Json::parse(index_to_json(x));
  };
  observe::BenchDiffOptions no_time;
  no_time.check_time = false;
  const auto diff = [&](const util::Json& base, const util::Json& fresh) {
    return observe::diff_bench_json(base, fresh, no_time);
  };
  const auto text = [](const observe::BenchDiffResult& r) {
    return observe::diff_result_to_text(r, false, "");
  };

  const observe::BenchDiffResult same = observe::diff_bench_json(index, index);
  EXPECT_TRUE(same.ok());
  EXPECT_TRUE(same.notes.empty()) << text(same);

  // A coverage drop gates; read the other way it is an improvement.
  SweepSummary drop = s;
  drop.jobs[0].coverage -= 0.05;
  const observe::BenchDiffResult down = diff(index, json(drop));
  EXPECT_FALSE(down.ok());
  EXPECT_NE(text(down).find("FAIL jobs[" + s.jobs[0].spec.id + "].coverage"),
            std::string::npos)
      << text(down);
  EXPECT_TRUE(diff(json(drop), index).ok());

  // An ok job that fails: run_sweep writes it with zeros beside the error.
  SweepSummary flip = s;
  JobResult& job = flip.jobs[1];
  job = JobResult();
  job.spec = s.jobs[1].spec;
  job.status = "failed";
  job.error = "boom";
  flip.failed = 1;
  const observe::BenchDiffResult failed = diff(index, json(flip));
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(text(failed).find("FAIL jobs[" + job.spec.id + "].coverage"),
            std::string::npos)
      << text(failed);
  // The job passing again is a recovery: its zeros were never measurements.
  const observe::BenchDiffResult recovered = diff(json(flip), index);
  EXPECT_TRUE(recovered.ok()) << text(recovered);
}

TEST(Sweep, FailedJournalRecordCarriesDiagnostics) {
  Manifest m = parse_manifest(R"({
    "schema": 1,
    "designs": ["/nonexistent/broken.cdfg"],
    "configs": [{"name": "a1m1", "alu": 1, "mul": 1}],
    "scan": ["full"],
    "widths": [2],
    "seeds": [7]
  })");
  const fs::path dir = scratch("faildiag");
  SweepOptions opts;
  opts.results_dir = dir.string();
  const SweepSummary s = run_sweep(m, opts);
  EXPECT_EQ(s.failed, 1);
  const std::string journal = slurp(dir / "journal.jsonl");
  // The failure record embeds a metrics snapshot and the last heartbeat
  // line, so a dead job's context survives in the journal.
  EXPECT_NE(journal.find("\"diag\""), std::string::npos) << journal;
  EXPECT_NE(journal.find("\"counters\""), std::string::npos);
  EXPECT_NE(journal.find("\"heartbeat\""), std::string::npos);
  // Successful runs stay diag-free (the happy path pays nothing).
  const fs::path ok_dir = scratch("okdiag");
  SweepOptions ok;
  ok.results_dir = ok_dir.string();
  run_sweep(tiny_manifest(), ok);
  EXPECT_EQ(slurp(ok_dir / "journal.jsonl").find("\"diag\""),
            std::string::npos);
}

TEST(StageCache, GetOrComputeReportsOutcome) {
  StageCache cache;
  const char* outcome = nullptr;
  auto make = [] { return std::make_shared<const cdfg::Cdfg>(); };
  cache.parse.get_or_compute(42, make, &outcome);
  EXPECT_STREQ(outcome, "miss");
  cache.parse.get_or_compute(42, make, &outcome);
  EXPECT_STREQ(outcome, "hit");
  EXPECT_EQ(cache.stats().parse_hits, 1);
}

TEST(Sweep, StripTimingZeroesOnlyWallMs) {
  const std::string in =
      "{\"wall_ms\": 12.5, \"coverage\": 0.97,\n \"wall_ms\": 3e-05}";
  EXPECT_EQ(strip_timing(in),
            "{\"wall_ms\": 0, \"coverage\": 0.97,\n \"wall_ms\": 0}");
}

}  // namespace
}  // namespace tsyn::campaign
