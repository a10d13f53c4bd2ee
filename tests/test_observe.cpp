// Fault-lifecycle ledger, coverage waterfalls, SCOAP effort attribution,
// run reports, and bench_diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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
#include "util/rng.h"

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
        EXPECT_TRUE(it->status == FaultStatus::kDetected ||
                    it->status == FaultStatus::kDropped)
            << i << " " << to_string(it->status);
        EXPECT_GE(it->first_detect_pattern, 0);
        break;
      case gl::AtpgStatus::kUntestable:
        EXPECT_EQ(it->status, FaultStatus::kRedundant);
        EXPECT_EQ(it->first_detect_pattern, -1);
        break;
      case gl::AtpgStatus::kAborted:
        // An aborted target can still fall to another fault's pattern.
        EXPECT_TRUE(it->status == FaultStatus::kAborted ||
                    it->status == FaultStatus::kDropped);
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
  // Detected by grading, never targeted.
  EXPECT_EQ(sa0.status, FaultStatus::kDropped);
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

// ---- the merge against a reference ----

/// One recorded event, as the reference merge below reads it.
struct RefEvent {
  FaultKey key;
  int kind = 0;  ///< 0 targeted, 1 detected, 2 seq detected, 3 effort, 4 n-detect
  TargetOutcome outcome = TargetOutcome::kDetected;
  int phase = 0;
  std::int64_t a = 0, b = 0;
};

struct RefJourney {
  FaultJourney j;  ///< every field but status
  std::string status;
};

struct RefSnapshot {
  std::vector<RefJourney> journeys;
  std::vector<Waterfall> waterfalls;
  std::int64_t detected = 0, dropped = 0, redundant = 0, aborted = 0,
               undetected = 0;
};

/// The map-based merge ledger_snapshot() used before the dense table: one
/// std::map per fault and per (phase, fault) first detection, waterfalls
/// sorted at the end. Kept as the reference the dense merge must match.
RefSnapshot reference_merge(const std::vector<RefEvent>& events,
                            const std::vector<std::string>& phases,
                            const std::vector<std::int64_t>& universe) {
  struct Agg {
    RefJourney r;
    int ndetect_phase = -1;
    int seq_phase = -1;
  };
  std::map<FaultKey, Agg> by_fault;
  std::map<std::pair<int, FaultKey>, std::int64_t> first_pattern;
  std::map<std::pair<int, FaultKey>, std::int64_t> first_frame;
  for (const RefEvent& e : events) {
    Agg& a = by_fault[e.key];
    FaultJourney& j = a.r.j;
    j.key = e.key;
    switch (e.kind) {
      case 0:
        ++j.targets;
        j.decisions += e.a;
        j.backtracks += e.b;
        if (e.outcome == TargetOutcome::kDetected) ++j.outcome_detected;
        else if (e.outcome == TargetOutcome::kUntestable)
          ++j.outcome_untestable;
        else ++j.outcome_aborted;
        break;
      case 1: {
        if (j.first_detect_phase < 0 || e.phase < j.first_detect_phase ||
            (e.phase == j.first_detect_phase &&
             e.a < j.first_detect_pattern)) {
          j.first_detect_phase = e.phase;
          j.first_detect_pattern = e.a;
        }
        auto [it, fresh] = first_pattern.try_emplace({e.phase, e.key}, e.a);
        if (!fresh) it->second = std::min(it->second, e.a);
        break;
      }
      case 2: {
        if (a.seq_phase < 0 || e.phase < a.seq_phase ||
            (e.phase == a.seq_phase && e.a < j.first_detect_frame)) {
          a.seq_phase = e.phase;
          j.first_detect_frame = e.a;
        }
        auto [it, fresh] = first_frame.try_emplace({e.phase, e.key}, e.a);
        if (!fresh) it->second = std::min(it->second, e.a);
        break;
      }
      case 3:
        j.sim_events += e.a;
        break;
      case 4:
        if (e.phase > a.ndetect_phase) {
          a.ndetect_phase = e.phase;
          j.n_detect = e.a;
        } else if (e.phase == a.ndetect_phase) {
          j.n_detect = std::max(j.n_detect, e.a);
        }
        break;
    }
  }
  RefSnapshot out;
  for (auto& [key, agg] : by_fault) {
    const FaultJourney& j = agg.r.j;
    std::string& st = agg.r.status;
    if (j.outcome_detected > 0) st = "detected";
    else if (j.first_detect_pattern >= 0 || j.first_detect_frame >= 0)
      st = "dropped";
    else if (j.outcome_untestable > 0) st = "redundant";
    else if (j.outcome_aborted > 0) st = "aborted";
    else st = "undetected";
    if (st == "detected") ++out.detected;
    else if (st == "dropped") ++out.dropped;
    else if (st == "redundant") ++out.redundant;
    else if (st == "aborted") ++out.aborted;
    else ++out.undetected;
    out.journeys.push_back(agg.r);
  }
  const auto build = [&](const auto& firsts, const char* domain) {
    std::map<int, std::vector<std::int64_t>> per_phase;
    for (const auto& [pk, index] : firsts) per_phase[pk.first].push_back(index);
    for (auto& [phase, indices] : per_phase) {
      std::sort(indices.begin(), indices.end());
      Waterfall w;
      w.phase = phase;
      w.phase_name = phases[static_cast<std::size_t>(phase)];
      w.domain = domain;
      w.universe = universe[static_cast<std::size_t>(phase)];
      if (w.universe == 0)
        w.universe = static_cast<std::int64_t>(indices.size());
      std::int64_t cum = 0;
      for (std::size_t i = 0; i < indices.size(); ++i) {
        ++cum;
        if (i + 1 < indices.size() && indices[i + 1] == indices[i]) continue;
        w.curve.push_back({indices[i], cum});
      }
      out.waterfalls.push_back(std::move(w));
    }
  };
  build(first_pattern, "pattern");
  build(first_frame, "frame");
  std::sort(out.waterfalls.begin(), out.waterfalls.end(),
            [](const Waterfall& a, const Waterfall& b) {
              return a.phase != b.phase ? a.phase < b.phase
                                        : a.domain < b.domain;
            });
  return out;
}

TEST(Ledger, SnapshotMatchesReferenceMerge) {
  // Seeded random events of all five kinds from four threads per phase,
  // in four phases (the default "run" included), pins -1..3, both
  // detection domains, n-detect counts in several phases per fault, and
  // effort values past 32 bits. Phase 2 records no universe, so its
  // waterfalls fall back to their detected count.
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 600;
  const std::vector<std::string> phases{"run", "p.one", "p.two", "p.three"};
  const std::vector<std::int64_t> universe{0, 180, 0, 7};
  ledger_reset();
  ledger_enable();
  std::vector<RefEvent> events;
  for (int phase = 0; phase < 4; ++phase) {
    std::optional<LedgerPhase> scope;
    if (phase > 0) scope.emplace(phases[static_cast<std::size_t>(phase)].c_str());
    if (universe[static_cast<std::size_t>(phase)] > 0)
      record_universe(static_cast<long>(universe[static_cast<std::size_t>(phase)]));
    std::vector<std::vector<RefEvent>> per_thread(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Rng rng(0x1ed6e7 + static_cast<std::uint64_t>(16 * phase + t));
        for (int i = 0; i < kEventsPerThread; ++i) {
          // Kinds reach node ranges that make every status occur:
          // 0-9 detected by PODEM, 10-19 dropped (15-19 in the frame
          // domain only), 20-24 redundant, 25-29 aborted, 30-39
          // undetected.
          RefEvent e;
          e.kind = rng.next_int(0, 4);
          e.outcome = static_cast<TargetOutcome>(rng.next_int(0, 2));
          const int last_node =
              e.kind == 0 ? (e.outcome == TargetOutcome::kDetected     ? 9
                             : e.outcome == TargetOutcome::kUntestable ? 24
                                                                        : 29)
              : e.kind == 1 ? 14
              : e.kind == 2 ? 19
                            : 39;
          e.key = {rng.next_int(0, last_node), rng.next_int(-1, 3),
                   rng.next_int(0, 1)};
          e.phase = phase;
          switch (e.kind) {
            case 0:
              e.a = rng.next_int(0, 5000);
              e.b = rng.next_int(0, 5000);
              record_targeted(e.key, e.outcome, e.a, e.b);
              break;
            case 1:
              e.a = rng.next_int(0, 300);
              record_detected(e.key, e.a);
              break;
            case 2:
              e.a = rng.next_int(1, 256);
              record_seq_detected(e.key, e.a);
              break;
            case 3:
              e.a = static_cast<std::int64_t>(rng.next_below(1ULL << 40));
              record_sim_effort(e.key, e.a);
              break;
            case 4:
              e.a = rng.next_int(0, 64);
              record_ndetect(e.key, e.a);
              break;
          }
          per_thread[static_cast<std::size_t>(t)].push_back(e);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const auto& v : per_thread) events.insert(events.end(), v.begin(), v.end());
  }
  ledger_disable();
  const LedgerSnapshot snap = ledger_snapshot();
  ledger_reset();
  const RefSnapshot ref = reference_merge(events, phases, universe);

  EXPECT_EQ(snap.phases, phases);
  ASSERT_EQ(snap.journeys.size(), ref.journeys.size());
  EXPECT_GT(snap.journeys.size(), 300u);  // 40 nodes x 5 pins x 2 polarities
  std::int64_t decisions = 0, backtracks = 0, sim_events = 0;
  for (std::size_t i = 0; i < ref.journeys.size(); ++i) {
    const FaultJourney& got = snap.journeys[i];
    const FaultJourney& want = ref.journeys[i].j;
    SCOPED_TRACE(testing::Message() << "journey " << i << " " << want.key.node
                                    << "/" << want.key.pin << "/"
                                    << want.key.sa1);
    EXPECT_EQ(got.key, want.key);
    EXPECT_STREQ(to_string(got.status), ref.journeys[i].status.c_str());
    EXPECT_EQ(got.targets, want.targets);
    EXPECT_EQ(got.outcome_detected, want.outcome_detected);
    EXPECT_EQ(got.outcome_untestable, want.outcome_untestable);
    EXPECT_EQ(got.outcome_aborted, want.outcome_aborted);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.backtracks, want.backtracks);
    EXPECT_EQ(got.first_detect_pattern, want.first_detect_pattern);
    EXPECT_EQ(got.first_detect_phase, want.first_detect_phase);
    EXPECT_EQ(got.first_detect_frame, want.first_detect_frame);
    EXPECT_EQ(got.n_detect, want.n_detect);
    EXPECT_EQ(got.sim_events, want.sim_events);
    decisions += want.decisions;
    backtracks += want.backtracks;
    sim_events += want.sim_events;
  }
  EXPECT_EQ(snap.detected, ref.detected);
  EXPECT_EQ(snap.dropped, ref.dropped);
  EXPECT_EQ(snap.redundant, ref.redundant);
  EXPECT_EQ(snap.aborted, ref.aborted);
  EXPECT_EQ(snap.undetected, ref.undetected);
  EXPECT_EQ(snap.total_decisions, decisions);
  EXPECT_EQ(snap.total_backtracks, backtracks);
  EXPECT_EQ(snap.total_sim_events, sim_events);
  EXPECT_GT(sim_events, std::int64_t{1} << 40);
  // Every status occurs, so each classification rule is exercised.
  for (std::int64_t count : {ref.detected, ref.dropped, ref.redundant,
                             ref.aborted, ref.undetected})
    EXPECT_GT(count, 0);

  ASSERT_EQ(snap.waterfalls.size(), ref.waterfalls.size());
  EXPECT_EQ(snap.waterfalls.size(), 8u);  // 4 phases x 2 domains
  for (std::size_t i = 0; i < ref.waterfalls.size(); ++i) {
    const Waterfall& got = snap.waterfalls[i];
    const Waterfall& want = ref.waterfalls[i];
    SCOPED_TRACE(testing::Message() << "waterfall " << i);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.phase_name, want.phase_name);
    EXPECT_EQ(got.domain, want.domain);
    EXPECT_EQ(got.universe, want.universe);
    ASSERT_EQ(got.curve.size(), want.curve.size());
    for (std::size_t p = 0; p < want.curve.size(); ++p) {
      EXPECT_EQ(got.curve[p].index, want.curve[p].index);
      EXPECT_EQ(got.curve[p].detected, want.curve[p].detected);
    }
  }
}

TEST(Ledger, JsonOfHandBuiltSnapshotIsPinned) {
  LedgerSnapshot snap;
  snap.phases = {"run", "a\"b"};
  FaultJourney j0;
  j0.key = {0, -1, 0};
  j0.status = FaultStatus::kUndetected;
  FaultJourney j1;
  j1.key = {2147483647, 15, 1};
  j1.status = FaultStatus::kDetected;
  j1.targets = 3;
  j1.decisions = 9223372036854775807;
  j1.backtracks = -9223372036854775807 - 1;
  j1.first_detect_pattern = 4294967296;
  j1.first_detect_frame = 1;
  j1.n_detect = 0;
  j1.sim_events = 1234567890123;
  snap.journeys = {j0, j1};
  Waterfall w;
  w.phase = 1;
  w.phase_name = "a\"b";
  w.domain = "pattern";
  w.universe = 2;
  w.curve = {{0, 1}, {4294967296, 2}};
  snap.waterfalls = {w};
  snap.detected = 1;
  snap.undetected = 1;
  snap.total_decisions = 9223372036854775807;
  snap.total_backtracks = -9223372036854775807 - 1;
  snap.total_sim_events = 1234567890123;
  EXPECT_EQ(
      ledger_to_json(snap),
      "{\n"
      "  \"schema\": 1,\n"
      "  \"phases\": [\"run\", \"a\\\"b\"],\n"
      "  \"summary\": {\"faults\": 2, \"detected\": 1, \"dropped\": 0, "
      "\"redundant\": 0, \"aborted\": 0, \"undetected\": 1, "
      "\"decisions\": 9223372036854775807, "
      "\"backtracks\": -9223372036854775808, "
      "\"sim_events\": 1234567890123},\n"
      "  \"waterfalls\": [\n"
      "    {\"phase\": \"a\\\"b\", \"domain\": \"pattern\", \"universe\": 2, "
      "\"curve\": [{\"i\": 0, \"detected\": 1}, "
      "{\"i\": 4294967296, \"detected\": 2}]}\n"
      "  ],\n"
      "  \"faults\": [\n"
      "    {\"node\": 0, \"pin\": -1, \"sa\": 0, \"status\": \"undetected\", "
      "\"targets\": 0, \"decisions\": 0, \"backtracks\": 0, "
      "\"first_detect_pattern\": -1, \"first_detect_frame\": -1, "
      "\"n_detect\": -1, \"sim_events\": 0},\n"
      "    {\"node\": 2147483647, \"pin\": 15, \"sa\": 1, "
      "\"status\": \"detected\", \"targets\": 3, "
      "\"decisions\": 9223372036854775807, "
      "\"backtracks\": -9223372036854775808, "
      "\"first_detect_pattern\": 4294967296, \"first_detect_frame\": 1, "
      "\"n_detect\": 0, \"sim_events\": 1234567890123}\n"
      "  ]\n"
      "}\n");
  // The empty snapshot closes its arrays on the same line.
  LedgerSnapshot empty;
  empty.phases = {"run"};
  EXPECT_EQ(ledger_to_json(empty),
            "{\n  \"schema\": 1,\n  \"phases\": [\"run\"],\n"
            "  \"summary\": {\"faults\": 0, \"detected\": 0, \"dropped\": 0, "
            "\"redundant\": 0, \"aborted\": 0, \"undetected\": 0, "
            "\"decisions\": 0, \"backtracks\": 0, \"sim_events\": 0},\n"
            "  \"waterfalls\": [],\n  \"faults\": []\n}\n");
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
