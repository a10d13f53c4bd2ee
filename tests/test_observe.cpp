// Fault-lifecycle ledger, coverage waterfalls, SCOAP effort attribution,
// run reports, and bench_diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "hls/synthesis.h"
#include "observe/bench_diff.h"
#include "observe/ledger.h"
#include "observe/report.h"
#include "observe/scoap_attr.h"
#include "util/json.h"

namespace tsyn::observe {
namespace {

using compaction::CompactionOptions;
using compaction::CompactMode;
using compaction::TestCube;
using gl::Bits;
using gl::Fault;
using gl::Netlist;
using gl::V;

#ifdef TSYN_LEDGER_NOOP
// Recording is compiled out: only the API-shape tests below are
// meaningful (the snapshot is an empty skeleton by contract).
TEST(LedgerNoop, SnapshotIsEmptySkeleton) {
  const LedgerSnapshot snap = ledger_snapshot();
  EXPECT_TRUE(snap.journeys.empty());
  EXPECT_FALSE(ledger_enabled());
}
#else

/// Full-scan gate-level expansion of a behavior (every register scanned,
/// combinational netlist) — same rig as the compaction tests.
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

/// One static-compaction run on diffeq w4 with the ledger on, shared by
/// the snapshot-consuming tests (attribution, report, waterfall shape).
struct DiffeqRun {
  Netlist n;
  std::vector<Fault> faults;
  compaction::CompactedCampaign campaign;
  LedgerSnapshot snap;
};

const DiffeqRun& diffeq_run() {
  static const DiffeqRun* run = [] {
    auto* r = new DiffeqRun{full_scan_netlist(cdfg::diffeq(), 4), {}, {}, {}};
    r->faults = gl::enumerate_faults(r->n);
    CompactionOptions copts;
    copts.mode = CompactMode::kStatic;
    ledger_reset();
    ledger_enable();
    r->campaign = compaction::run_compacted_atpg(r->n, r->faults, copts,
                                                 10000, gl::FaultSimOptions{1});
    ledger_disable();
    r->snap = ledger_snapshot();
    ledger_reset();
    return r;
  }();
  return *run;
}

// ---- determinism: the tentpole acceptance contract ----

TEST(Ledger, JsonByteIdenticalAcrossThreadCounts) {
  const Netlist n = full_scan_netlist(cdfg::diffeq(), 4);
  const auto faults = gl::enumerate_faults(n);
  std::vector<std::string> jsons;
  for (int threads : {1, 2, 8}) {
    CompactionOptions copts;
    copts.mode = CompactMode::kStatic;
    ledger_reset();
    ledger_enable();
    compaction::run_compacted_atpg(n, faults, copts, 10000,
                                   gl::FaultSimOptions{threads});
    ledger_disable();
    jsons.push_back(ledger_to_json());
    ledger_reset();
  }
  ASSERT_EQ(jsons.size(), 3u);
  EXPECT_GT(jsons[0].size(), 1000u);  // a real artifact, not a skeleton
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
}

// ---- journeys and waterfalls on a real pipeline run ----

TEST(Ledger, JourneysCoverTheFaultUniverse) {
  const DiffeqRun& r = diffeq_run();
  EXPECT_EQ(r.snap.journeys.size(), r.faults.size());
  // Sorted by key, no duplicates.
  for (std::size_t i = 1; i < r.snap.journeys.size(); ++i)
    EXPECT_LT(r.snap.journeys[i - 1].key, r.snap.journeys[i].key);
  // Summary counts partition the universe.
  EXPECT_EQ(r.snap.detected + r.snap.dropped + r.snap.redundant +
                r.snap.aborted + r.snap.undetected,
            static_cast<std::int64_t>(r.faults.size()));
  EXPECT_GT(r.snap.detected, 0);
  EXPECT_GT(r.snap.total_decisions, 0);
  EXPECT_GT(r.snap.total_sim_events, 0);
}

TEST(Ledger, JourneyStatusesAgreeWithTheCampaign) {
  const DiffeqRun& r = diffeq_run();
  for (std::size_t i = 0; i < r.faults.size(); ++i) {
    const FaultKey key = make_fault_key(r.faults[i]);
    const auto it = std::lower_bound(
        r.snap.journeys.begin(), r.snap.journeys.end(), key,
        [](const FaultJourney& j, const FaultKey& k) { return j.key < k; });
    ASSERT_TRUE(it != r.snap.journeys.end() && it->key == key);
    switch (r.campaign.campaign.status[i]) {
      case gl::AtpgStatus::kDetected:
        // Either its own PODEM run detected it or it was dropped by an
        // earlier test's grading.
        EXPECT_TRUE(it->status == "detected" || it->status == "dropped")
            << i << " " << it->status;
        EXPECT_GE(it->first_detect_pattern, 0);
        break;
      case gl::AtpgStatus::kUntestable:
        EXPECT_EQ(it->status, "redundant");
        EXPECT_EQ(it->first_detect_pattern, -1);
        break;
      case gl::AtpgStatus::kAborted:
        // An aborted target can still fall to another fault's pattern.
        EXPECT_TRUE(it->status == "aborted" || it->status == "dropped");
        break;
    }
  }
}

TEST(Ledger, WaterfallsAreMonotoneAndBounded) {
  const DiffeqRun& r = diffeq_run();
  ASSERT_FALSE(r.snap.waterfalls.empty());
  bool saw_generate = false, saw_ship = false;
  for (const Waterfall& w : r.snap.waterfalls) {
    ASSERT_FALSE(w.curve.empty());
    EXPECT_GT(w.universe, 0);
    for (std::size_t i = 0; i < w.curve.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(w.curve[i - 1].index, w.curve[i].index);
        EXPECT_LT(w.curve[i - 1].detected, w.curve[i].detected);
      }
      EXPECT_GE(w.curve[i].index, 0);
    }
    EXPECT_LE(w.curve.back().detected, w.universe);
    saw_generate |= w.phase_name == "compact.generate";
    saw_ship |= w.phase_name == "compact.ship";
  }
  ASSERT_TRUE(saw_generate);
  ASSERT_TRUE(saw_ship);
  // Pre- and post-compaction curves end at comparable coverage (the
  // compaction contract: shipped coverage never drops below campaign's).
  const auto final_detected = [&](const char* phase) {
    for (const Waterfall& w : r.snap.waterfalls)
      if (w.phase_name == phase && w.domain == "pattern")
        return w.curve.back().detected;
    return std::int64_t{-1};
  };
  EXPECT_GE(final_detected("compact.ship"), final_detected("compact.generate"));
}

TEST(Ledger, JsonParsesAndMatchesSnapshot) {
  const DiffeqRun& r = diffeq_run();
  const std::string json = ledger_to_json(r.snap);
  const util::Json doc = util::Json::parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("schema", 0), 1.0);
  const util::Json* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->number_or("faults", 0),
            static_cast<double>(r.faults.size()));
  EXPECT_EQ(summary->number_or("detected", -1),
            static_cast<double>(r.snap.detected));
  const util::Json* faults_arr = doc.find("faults");
  ASSERT_NE(faults_arr, nullptr);
  EXPECT_EQ(faults_arr->arr.size(), r.snap.journeys.size());
}

// ---- first-detect / n-detect on a hand-checkable netlist ----

TEST(Ledger, DetectionMatrixRecordsFirstDetectAndNdetect) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(gl::GateType::kAnd, {a, b});
  n.mark_output(g);
  const std::vector<Fault> faults{{g, -1, false}, {g, -1, true}};
  // p0=(1,1) detects g-sa0; p1=(0,1), p2=(1,0), p3=(0,0) detect g-sa1.
  const auto cube = [](V x, V y) { return TestCube{x, y}; };
  const std::vector<TestCube> patterns{
      cube(V::k1, V::k1), cube(V::k0, V::k1), cube(V::k1, V::k0),
      cube(V::k0, V::k0)};
  ledger_reset();
  ledger_enable();
  compaction::detection_matrix(n, patterns, faults);
  ledger_disable();
  const LedgerSnapshot snap = ledger_snapshot();
  ledger_reset();

  ASSERT_EQ(snap.journeys.size(), 2u);
  const FaultJourney& sa0 = snap.journeys[0];  // sorted: sa1=0 first
  const FaultJourney& sa1 = snap.journeys[1];
  EXPECT_EQ(sa0.key.sa1, 0);
  EXPECT_EQ(sa0.first_detect_pattern, 0);
  EXPECT_EQ(sa0.n_detect, 1);
  EXPECT_EQ(sa0.status, "dropped");  // detected by grading, never targeted
  EXPECT_EQ(sa1.first_detect_pattern, 1);
  EXPECT_EQ(sa1.n_detect, 3);

  ASSERT_EQ(snap.waterfalls.size(), 1u);
  const Waterfall& w = snap.waterfalls[0];
  EXPECT_EQ(w.domain, "pattern");
  EXPECT_EQ(w.universe, 2);
  ASSERT_EQ(w.curve.size(), 2u);
  EXPECT_EQ(w.curve[0].index, 0);
  EXPECT_EQ(w.curve[0].detected, 1);
  EXPECT_EQ(w.curve[1].index, 1);
  EXPECT_EQ(w.curve[1].detected, 2);
}

// ---- sequential engine: frame-domain waterfall ----

TEST(Ledger, SequentialDetectionRecordsFrames) {
  Netlist n;
  const int in = n.add_input("in");
  const int ff = n.add_dff(in);
  const int out = n.add_gate(gl::GateType::kAnd, {ff, in});
  n.mark_output(out);
  const std::vector<Fault> faults{{ff, -1, false}};  // ff stuck-at-0
  // Frame 0 loads 1 into the flop (output X & 1 = X either way); frame 1
  // exposes the stuck flop: good out = 1, faulty out = 0.
  const std::vector<std::vector<Bits>> frames{{Bits::all1()}, {Bits::all1()}};
  ledger_reset();
  ledger_enable();
  const std::vector<bool> det = gl::sequential_fault_sim(n, frames, faults);
  ledger_disable();
  const LedgerSnapshot snap = ledger_snapshot();
  ledger_reset();

  ASSERT_EQ(det.size(), 1u);
  EXPECT_TRUE(det[0]);
  ASSERT_EQ(snap.journeys.size(), 1u);
  EXPECT_EQ(snap.journeys[0].first_detect_frame, 2);  // 1-based frame 2
  EXPECT_GT(snap.journeys[0].sim_events, 0);
  ASSERT_EQ(snap.waterfalls.size(), 1u);
  EXPECT_EQ(snap.waterfalls[0].domain, "frame");
  EXPECT_EQ(snap.waterfalls[0].universe, 1);
  ASSERT_EQ(snap.waterfalls[0].curve.size(), 1u);
  EXPECT_EQ(snap.waterfalls[0].curve[0].index, 2);
  EXPECT_EQ(snap.waterfalls[0].curve[0].detected, 1);
}

// ---- SCOAP attribution ----

TEST(Scoap, SpearmanOnKnownOrders) {
  EXPECT_DOUBLE_EQ(
      spearman_rank_correlation({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
  EXPECT_DOUBLE_EQ(
      spearman_rank_correlation({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({5, 5, 5}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1}, {2}), 0.0);
  // Ties get average ranks: {1,1,2} vs {3,3,9} is still a perfect match.
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1, 1, 2}, {3, 3, 9}), 1.0);
}

TEST(Scoap, AverageRanksHandleTies) {
  const std::vector<double> r = average_ranks({10, 20, 10, 30});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.5);
  EXPECT_DOUBLE_EQ(r[1], 3.0);
  EXPECT_DOUBLE_EQ(r[2], 1.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Scoap, AttributionJoinsLedgerAgainstNetlist) {
  const DiffeqRun& r = diffeq_run();
  const ScoapAttribution attr = attribute_scoap(r.n, r.snap, 10);
  ASSERT_FALSE(attr.rows.empty());
  // Every row is a targeted fault with resolvable SCOAP numbers.
  for (const ScoapFaultRow& row : attr.rows) {
    EXPECT_GT(row.cc, 0);
    EXPECT_GE(row.co, 0);
    EXPECT_EQ(row.predicted, row.cc + row.co);
    EXPECT_FALSE(row.label.empty());
  }
  for (std::size_t i = 1; i < attr.rows.size(); ++i)
    EXPECT_LT(attr.rows[i - 1].key, attr.rows[i].key);
  EXPECT_GE(attr.spearman, -1.0);
  EXPECT_LE(attr.spearman, 1.0);
  ASSERT_LE(attr.top_mispredicted.size(), 10u);
  // Top-mispredicted is sorted by descending |rank gap|.
  for (std::size_t i = 1; i < attr.top_mispredicted.size(); ++i) {
    const auto gap = [&](int idx) {
      return std::abs(attr.rows[static_cast<std::size_t>(idx)].rank_gap());
    };
    EXPECT_GE(gap(attr.top_mispredicted[i - 1]),
              gap(attr.top_mispredicted[i]));
  }
}

// ---- run report ----

RunReport make_report() {
  const DiffeqRun& r = diffeq_run();
  RunReport rep;
  rep.title = "diffeq w4 static";
  rep.behavior = "bench:diffeq";
  rep.compact_mode = "static";
  rep.xfill = "random";
  rep.width = 4;
  rep.gates = r.n.num_nodes();
  rep.pis = static_cast<std::int64_t>(r.n.primary_inputs().size());
  rep.faults = static_cast<std::int64_t>(r.faults.size());
  rep.fault_coverage = 100.0 * r.campaign.campaign.fault_coverage;
  rep.fault_efficiency = 100.0 * r.campaign.campaign.fault_efficiency;
  rep.cubes = static_cast<std::int64_t>(r.campaign.cubes.size());
  rep.patterns = static_cast<std::int64_t>(r.campaign.patterns.size());
  rep.baseline_patterns = r.campaign.baseline_patterns;
  rep.ledger = r.snap;
  rep.scoap = attribute_scoap(r.n, r.snap, 10);
  return rep;
}

TEST(Report, JsonIsWellFormedAndComplete) {
  const RunReport rep = make_report();
  const std::string json = report_to_json(rep);
  const util::Json doc = util::Json::parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("schema", 0), 1.0);
  for (const char* key : {"design", "atpg", "ledger", "scoap", "metrics"}) {
    const util::Json* section = doc.find(key);
    ASSERT_NE(section, nullptr) << key;
    EXPECT_TRUE(section->is_object()) << key;
  }
  EXPECT_EQ(doc.find("design")->number_or("faults", 0),
            static_cast<double>(rep.faults));
  EXPECT_EQ(doc.find("ledger")->number_or("schema", 0), 1.0);
  const util::Json* scoap = doc.find("scoap");
  EXPECT_EQ(scoap->number_or("rows", -1),
            static_cast<double>(rep.scoap.rows.size()));
}

TEST(Report, HtmlIsSelfContained) {
  const RunReport rep = make_report();
  const std::string html = report_to_html(rep);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);  // inline waterfall
  EXPECT_NE(html.find("SCOAP"), std::string::npos);
  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
}

#endif  // TSYN_LEDGER_NOOP

// ---- bench_diff (ledger-independent) ----

util::Json parse(const std::string& s) { return util::Json::parse(s); }

const char* kBase = R"({
  "schema": 2, "seed": 1,
  "ppsfp": [
    {"circuit": "diffeq", "gates": 100, "faults": 400,
     "coverage": 98.5, "serial_ms": 10.0, "speedup8": 4.0,
     "overhead_pct": 1.0, "overhead_iqr_pct": 2.0}
  ]
})";

std::string with(const std::string& field, const std::string& value) {
  std::string s = kBase;
  const std::size_t pos = s.find(field + "\": ");
  EXPECT_NE(pos, std::string::npos);
  const std::size_t start = pos + field.size() + 3;
  const std::size_t end = s.find_first_of(",}", start);
  return s.substr(0, start) + value + s.substr(end);
}

TEST(BenchDiff, IdenticalFilesPass) {
  const BenchDiffResult res = diff_bench_json(parse(kBase), parse(kBase));
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.regressions.empty());
}

TEST(BenchDiff, CoverageDropFailsRiseIsANote) {
  const BenchDiffResult drop =
      diff_bench_json(parse(kBase), parse(with("coverage", "90.0")));
  EXPECT_FALSE(drop.ok());
  ASSERT_EQ(drop.regressions.size(), 1u);
  EXPECT_NE(drop.regressions[0].find("coverage"), std::string::npos);
  const BenchDiffResult rise =
      diff_bench_json(parse(kBase), parse(with("coverage", "99.5")));
  EXPECT_TRUE(rise.ok());
  EXPECT_FALSE(rise.notes.empty());
}

TEST(BenchDiff, TimeToleranceGates) {
  // +40% is inside the default 50% tolerance; +100% is not.
  EXPECT_TRUE(
      diff_bench_json(parse(kBase), parse(with("serial_ms", "14.0"))).ok());
  EXPECT_FALSE(
      diff_bench_json(parse(kBase), parse(with("serial_ms", "20.0"))).ok());
  BenchDiffOptions no_time;
  no_time.check_time = false;
  EXPECT_TRUE(
      diff_bench_json(parse(kBase), parse(with("serial_ms", "20.0")), no_time)
          .ok());
  BenchDiffOptions tight;
  tight.time_tolerance_pct = 10.0;
  EXPECT_FALSE(
      diff_bench_json(parse(kBase), parse(with("serial_ms", "14.0")), tight)
          .ok());
}

TEST(BenchDiff, WorkloadIdentityMustMatch) {
  const BenchDiffResult res =
      diff_bench_json(parse(kBase), parse(with("gates", "101")));
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("identity"), std::string::npos);
}

TEST(BenchDiff, SpeedupDriftIsInformational) {
  // Ratios derived from times drift whenever the times do.
  for (const char* field : {"speedup8", "overhead_pct", "overhead_iqr_pct"}) {
    const BenchDiffResult res =
        diff_bench_json(parse(kBase), parse(with(field, "9.0")));
    EXPECT_TRUE(res.ok()) << field;
    EXPECT_FALSE(res.notes.empty()) << field;
  }
}

TEST(BenchDiff, MissingRowFailsUnlessAllowed) {
  const std::string fresh = R"({"schema": 2, "seed": 1, "ppsfp": []})";
  EXPECT_FALSE(diff_bench_json(parse(kBase), parse(fresh)).ok());
  BenchDiffOptions allow;
  allow.allow_missing = true;
  EXPECT_TRUE(diff_bench_json(parse(kBase), parse(fresh), allow).ok());
}

TEST(BenchDiff, NullSkipMarkerIsANoteNotARegression) {
  // A single-core host writes "parallel_ms": null instead of a fake
  // measurement; the gate must not flag the skip either direction.
  const BenchDiffResult skipped =
      diff_bench_json(parse(kBase), parse(with("serial_ms", "null")));
  EXPECT_TRUE(skipped.ok());
  EXPECT_FALSE(skipped.notes.empty());
  const BenchDiffResult measured =
      diff_bench_json(parse(with("serial_ms", "null")), parse(kBase));
  EXPECT_TRUE(measured.ok());
  // Workload identity may not turn into a skip marker.
  const BenchDiffResult identity =
      diff_bench_json(parse(kBase), parse(with("gates", "null")));
  EXPECT_FALSE(identity.ok());
}

TEST(BenchDiff, MissingLeafMeasurementIsANote) {
  const std::string fresh = R"({
    "schema": 2, "seed": 1,
    "ppsfp": [
      {"circuit": "diffeq", "gates": 100, "faults": 400,
       "coverage": 98.5, "speedup8": 4.0}
    ]
  })";  // serial_ms absent: skipped measurement, not a regression
  const BenchDiffResult res = diff_bench_json(parse(kBase), parse(fresh));
  EXPECT_TRUE(res.ok());
  EXPECT_FALSE(res.notes.empty());
  // An identity field going missing is still a failure.
  const std::string no_gates = R"({
    "schema": 2, "seed": 1,
    "ppsfp": [
      {"circuit": "diffeq", "faults": 400,
       "coverage": 98.5, "serial_ms": 10.0, "speedup8": 4.0}
    ]
  })";
  EXPECT_FALSE(diff_bench_json(parse(kBase), parse(no_gates)).ok());
}

TEST(BenchDiff, SeedOrSchemaMismatchIsUnusable) {
  const BenchDiffResult res =
      diff_bench_json(parse(kBase), parse(with("seed", "2")));
  EXPECT_FALSE(res.schema_ok);
  EXPECT_NE(res.schema_error.find("seed"), std::string::npos);
}

TEST(BenchDiff, MetricsSubtreeIsIgnored) {
  const std::string base =
      R"({"schema": 2, "seed": 1, "metrics": {"counters": {"a": 1}}})";
  const std::string fresh =
      R"({"schema": 2, "seed": 1, "metrics": {"counters": {"a": 999}}})";
  const BenchDiffResult res = diff_bench_json(parse(base), parse(fresh));
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.notes.empty());
}

}  // namespace
}  // namespace tsyn::observe
