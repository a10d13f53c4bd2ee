// Tests for the live-telemetry layer: progress counters, heartbeat JSONL
// streaming and the crash-flush hooks — plus the invariant that telemetry
// never changes fault-sim results.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/benchmarks.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace tsyn {
namespace {

using gl::Fault;
using gl::Netlist;

/// Full-scan gate-level expansion of a behavior (every register scanned,
/// combinational netlist) — same rig as the observe/compaction tests.
Netlist full_scan_netlist(const cdfg::Cdfg& g, int width) {
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  hls::Synthesis syn = hls::synthesize(g, opts);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(dp, x).netlist;
}

std::vector<std::vector<gl::Bits>> random_blocks(const Netlist& n, int count,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<gl::Bits>> blocks;
  for (int b = 0; b < count; ++b) {
    std::vector<gl::Bits> blk(n.primary_inputs().size());
    for (gl::Bits& bits : blk) bits = gl::Bits::known(rng.next_u64());
    blocks.push_back(std::move(blk));
  }
  return blocks;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// -- progress counters -------------------------------------------------------

TEST(Progress, GatedOnEnableAndHandleStable) {
  util::progress_reset();
  util::Progress& p = util::progress("test.progress.gate");
  EXPECT_EQ(&p, &util::progress("test.progress.gate"));
  util::progress_disable();
  p.add(5);
  p.add_total(10);
  EXPECT_EQ(p.done(), 0);  // disabled adds are dropped, not deferred
  EXPECT_EQ(p.total(), 0);
  util::progress_enable();
  p.add(5);
  p.add_total(10);
  EXPECT_EQ(p.done(), 5);
  EXPECT_EQ(p.total(), 10);
  util::progress_disable();
  util::progress_reset();
}

TEST(Progress, SnapshotSortedAndReset) {
  util::progress_reset();
  util::progress_enable();
  util::progress("test.progress.b").add(2);
  util::progress("test.progress.a").add_total(7);
  const auto rows = util::progress_snapshot();
  // std::map ordering: "test.progress.a" precedes "test.progress.b".
  std::size_t ia = rows.size(), ib = rows.size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].name == "test.progress.a") ia = i;
    if (rows[i].name == "test.progress.b") ib = i;
  }
  ASSERT_LT(ia, rows.size());
  ASSERT_LT(ib, rows.size());
  EXPECT_LT(ia, ib);
  EXPECT_EQ(rows[ia].total, 7);
  EXPECT_EQ(rows[ib].done, 2);
  util::progress_disable();
  util::progress_reset();
  for (const auto& r : util::progress_snapshot()) {
    EXPECT_EQ(r.done, 0) << r.name;
    EXPECT_EQ(r.total, 0) << r.name;
  }
}

// -- heartbeat stream --------------------------------------------------------

TEST(Heartbeat, JsonlSchemaAndMonotonicTimestamps) {
  const std::string path = testing::TempDir() + "tsyn_hb_schema.jsonl";
  std::remove(path.c_str());
  util::progress_reset();
  util::TelemetryOptions opts;
  opts.heartbeat_path = path;
  opts.interval_ms = 5;
  ASSERT_TRUE(util::telemetry_start(opts));
  util::telemetry_set_phase("test.heartbeat");
  util::Progress& p = util::progress("test.hb.work");
  p.add_total(1000);
  for (int i = 0; i < 20; ++i) {
    p.add(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  util::telemetry_stop();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 2u) << "expected several heartbeats at 5 ms";
  EXPECT_EQ(static_cast<long>(lines.size()), util::telemetry_heartbeat_count());
  double last_seq = -1.0, last_t = -1.0;
  bool saw_row = false;
  for (const std::string& line : lines) {
    const util::Json j = util::Json::parse(line);  // throws on bad JSON
    ASSERT_TRUE(j.is_object());
    EXPECT_EQ(j.number_or("schema", 0), 1);
    const util::Json* type = j.find("type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(type->str, "heartbeat");
    const double seq = j.number_or("seq", -1);
    const double t = j.number_or("t_ms", -1);
    EXPECT_GT(seq, last_seq) << "seq must strictly increase";
    EXPECT_GE(t, last_t) << "t_ms must be monotonic";
    last_seq = seq;
    last_t = t;
    const util::Json* phase = j.find("phase");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->str, "test.heartbeat");
    const util::Json* progress = j.find("progress");
    ASSERT_NE(progress, nullptr);
    ASSERT_TRUE(progress->is_array());
    for (const util::Json& row : progress->arr) {
      const util::Json* name = row.find("name");
      ASSERT_NE(name, nullptr);
      if (name->str != "test.hb.work") continue;
      saw_row = true;
      const double done = row.number_or("done", -1);
      const double total = row.number_or("total", -1);
      EXPECT_GE(done, 0);
      EXPECT_LE(done, total);  // total is clamped to at least done
      ASSERT_NE(row.find("rate_per_s"), nullptr);
      ASSERT_NE(row.find("eta_ms"), nullptr);  // number or null, but present
      ASSERT_NE(row.find("delta"), nullptr);
    }
    EXPECT_NE(j.find("counters"), nullptr);
    EXPECT_NE(j.find("gauges"), nullptr);
  }
  EXPECT_TRUE(saw_row);
  // The final heartbeat (emitted at stop) must carry the finished state.
  const util::Json last = util::Json::parse(lines.back());
  for (const util::Json& row : last.find("progress")->arr)
    if (row.find("name")->str == "test.hb.work")
      EXPECT_EQ(row.number_or("done", -1), 200);
  std::remove(path.c_str());
  util::progress_reset();
}

TEST(Heartbeat, StartRejectsUnopenablePathAndSecondSession) {
  util::TelemetryOptions bad;
  bad.heartbeat_path = testing::TempDir() + "tsyn_hb_dir_as_file/";
  EXPECT_FALSE(util::telemetry_start(bad));
  EXPECT_FALSE(util::telemetry_active());

  util::TelemetryOptions ok;
  ok.heartbeat_path = testing::TempDir() + "tsyn_hb_nested/deep/hb.jsonl";
  ASSERT_TRUE(util::telemetry_start(ok));  // parent dirs created
  EXPECT_TRUE(util::telemetry_active());
  EXPECT_FALSE(util::telemetry_start(ok));  // one session at a time
  util::telemetry_stop();
  EXPECT_FALSE(util::telemetry_active());
}

// -- ledger reconciliation ---------------------------------------------------

#ifndef TSYN_LEDGER_NOOP
TEST(Progress, AtpgTargetsReconcileWithLedgerTotals) {
  const Netlist n = full_scan_netlist(cdfg::diffeq(), 4);
  std::vector<Fault> faults = gl::enumerate_faults(n);
  util::progress_reset();
  util::progress_enable();
  observe::ledger_reset();
  observe::ledger_enable();
  (void)gl::run_combinational_atpg(n, faults, /*backtrack_limit=*/2000);
  observe::ledger_disable();
  util::progress_disable();
  const observe::LedgerSnapshot snap = observe::ledger_snapshot();

  const util::Progress& p = util::progress("atpg.targets");
  // Every fault is closed exactly once (generated, graded away, proven
  // redundant, or aborted), so done == total == the fault universe — which
  // is also the ledger's journey count and its status partition.
  EXPECT_EQ(p.total(), static_cast<std::int64_t>(faults.size()));
  EXPECT_EQ(p.done(), p.total());
  EXPECT_EQ(static_cast<std::int64_t>(snap.journeys.size()), p.done());
  EXPECT_EQ(snap.detected + snap.dropped + snap.redundant + snap.aborted +
                snap.undetected,
            p.done());
  util::progress_reset();
}

TEST(Progress, PatternsReconcileWithGradedTests) {
  const Netlist n = full_scan_netlist(cdfg::diffeq(), 4);
  std::vector<Fault> faults = gl::enumerate_faults(n);
  util::progress_reset();
  util::progress_enable();
  const gl::AtpgCampaign c =
      gl::run_combinational_atpg(n, faults, /*backtrack_limit=*/2000);
  util::progress_disable();
  // Each graded test is one 64-lane PPSFP block.
  EXPECT_EQ(util::progress("sim.patterns").done(),
            64 * static_cast<std::int64_t>(c.tests.size()));
  util::progress_reset();
}
#endif  // TSYN_LEDGER_NOOP

// -- sampler thread against pool workers ------------------------------------

TEST(Heartbeat, SamplerRunsDuringParallelFaultSim) {
  // The sampler thread snapshots progress counters and metrics while pool
  // workers bump them — the TSAN job runs this binary.
  const Netlist n = full_scan_netlist(cdfg::ewf(), 4);
  std::vector<Fault> faults = gl::enumerate_faults(n);
  const auto blocks = random_blocks(n, 16, 0xABCDEF);
  const std::string path = testing::TempDir() + "tsyn_hb_parallel.jsonl";
  std::remove(path.c_str());
  util::progress_reset();
  util::TelemetryOptions opts;
  opts.heartbeat_path = path;
  opts.interval_ms = 5;
  ASSERT_TRUE(util::telemetry_start(opts));
  gl::FaultSimOptions so;
  so.num_threads = 4;
  // Keep simulating until a few heartbeats have landed mid-run.
  for (int rep = 0; rep < 5 || (util::telemetry_heartbeat_count() < 3 &&
                                rep < 500);
       ++rep)
    (void)gl::fault_coverage(n, blocks, faults, nullptr, so);
  util::telemetry_stop();
  const std::vector<std::string> lines = read_lines(path);
  EXPECT_GE(lines.size(), 3u);
  EXPECT_EQ(static_cast<long>(lines.size()), util::telemetry_heartbeat_count());
  for (const std::string& line : lines) {
    const util::Json j = util::Json::parse(line);
    EXPECT_EQ(j.find("type")->str, "heartbeat") << line;
  }
  std::remove(path.c_str());
  util::progress_reset();
}

// -- telemetry must not change results ---------------------------------------

TEST(Telemetry, FaultSimResultsBitIdenticalOnVsOff) {
  const Netlist n = full_scan_netlist(cdfg::diffeq(), 4);
  std::vector<Fault> faults = gl::enumerate_faults(n);
  const auto blocks = random_blocks(n, 8, 0x5EED);

  util::progress_disable();
  std::vector<bool> det_off;
  const double cov_off = gl::fault_coverage(n, blocks, faults, &det_off);
  const gl::AtpgCampaign atpg_off =
      gl::run_combinational_atpg(n, faults, /*backtrack_limit=*/2000);

  const std::string path = testing::TempDir() + "tsyn_hb_identical.jsonl";
  util::progress_reset();
  util::TelemetryOptions opts;
  opts.heartbeat_path = path;
  opts.interval_ms = 1;
  ASSERT_TRUE(util::telemetry_start(opts));
  std::vector<bool> det_on;
  const double cov_on = gl::fault_coverage(n, blocks, faults, &det_on);
  const gl::AtpgCampaign atpg_on =
      gl::run_combinational_atpg(n, faults, /*backtrack_limit=*/2000);
  util::telemetry_stop();
  std::remove(path.c_str());

  EXPECT_EQ(cov_off, cov_on);
  EXPECT_EQ(det_off, det_on);
  ASSERT_EQ(atpg_off.status.size(), atpg_on.status.size());
  for (std::size_t i = 0; i < atpg_off.status.size(); ++i)
    EXPECT_EQ(atpg_off.status[i], atpg_on.status[i]) << "fault " << i;
  EXPECT_EQ(atpg_off.tests, atpg_on.tests);
  util::progress_reset();
}

// -- crash flush -------------------------------------------------------------

// The crash flush is deliberately non-async-signal-safe (it serializes
// artifacts on the way out of a dying process), so TSAN's signal-unsafe
// checker rejects it by design — skip the death test under that build.
#if defined(__SANITIZE_THREAD__)
#define TSYN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TSYN_TSAN_BUILD 1
#endif
#endif

#ifndef TSYN_TSAN_BUILD
using TelemetryDeathTest = ::testing::Test;

TEST(TelemetryDeathTest, CrashFlushWritesArtifactsOnFatalSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "tsyn_crash_flush.txt";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        util::install_crash_flush([path] {
          std::ofstream out(path);
          out << "flushed\n";
        });
        std::raise(SIGTERM);
      },
      ::testing::KilledBySignal(SIGTERM), "");
  // The child re-raised after flushing; the artifact must exist.
  std::ifstream in(path);
  std::string word;
  in >> word;
  EXPECT_EQ(word, "flushed");
  std::remove(path.c_str());
}
#endif  // TSYN_TSAN_BUILD

}  // namespace
}  // namespace tsyn
