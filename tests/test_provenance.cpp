// Cross-layer provenance: component map construction, node attribution
// during expansion, the ledger join, determinism across thread counts,
// and the netlist name-uniqueness contract it relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "observe/provenance.h"
#include "observe/report.h"
#include "util/json.h"

namespace tsyn::observe {
namespace {

using gl::Netlist;

/// Full-scan synthesis + expansion with provenance recording, the rig the
/// acceptance tests run on.
struct ScanDesign {
  cdfg::Cdfg g;
  hls::Synthesis syn;
  rtl::Datapath dp;
  gl::ExpandedDesign ed;
  std::vector<gl::Fault> faults;
};

ScanDesign full_scan(cdfg::Cdfg behavior, int width) {
  ScanDesign d;
  d.g = std::move(behavior);
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  d.syn = hls::synthesize(d.g, opts);
  d.dp = d.syn.rtl.datapath;
  for (auto& reg : d.dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = width;
  d.ed = gl::expand_datapath(d.dp, x);
  d.faults = gl::enumerate_faults(d.ed.netlist);
  return d;
}

// ---------------------------------------------------------------------------
// Component map structure
// ---------------------------------------------------------------------------

TEST(ComponentMap, CoversDatapathStructure) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const ProvenanceMap& map = d.ed.provenance;
  ASSERT_FALSE(map.empty());

  // One component per PI, constant, register; a reg-mux per driven
  // register; one per FU; a fu-mux per multi-driver port. No controller
  // (full-scan expansion runs without one).
  EXPECT_EQ(map.find(CompKind::kController, -1), -1);
  for (std::size_t i = 0; i < d.dp.primary_inputs.size(); ++i)
    EXPECT_GE(map.find(CompKind::kPrimaryInput, static_cast<int>(i)), 0);
  for (int r = 0; r < d.dp.num_regs(); ++r) {
    EXPECT_GE(map.find(CompKind::kRegister, r), 0);
    const int mux = map.find(CompKind::kRegMux, r);
    EXPECT_EQ(mux >= 0, !d.dp.regs[r].drivers.empty());
  }
  for (int f = 0; f < d.dp.num_fus(); ++f) {
    EXPECT_GE(map.find(CompKind::kFu, f), 0);
    for (std::size_t p = 0; p < d.dp.fus[f].port_drivers.size(); ++p) {
      const int mux = map.find(CompKind::kFuMux, f, static_cast<int>(p));
      EXPECT_EQ(mux >= 0, d.dp.fus[f].port_drivers[p].size() > 1);
    }
  }

  // Names are the stable human keys.
  const int r0 = map.find(CompKind::kRegister, 0);
  EXPECT_EQ(map.components[static_cast<std::size_t>(r0)].name,
            d.dp.regs[0].name);
  const int f0 = map.find(CompKind::kFu, 0);
  EXPECT_EQ(map.components[static_cast<std::size_t>(f0)].name,
            d.dp.fus[0].name);
}

TEST(ComponentMap, ControllerComponentOnlyWhenRequested) {
  const hls::Synthesis syn = hls::synthesize(cdfg::diffeq(), {});
  const ProvenanceMap with =
      make_component_map(syn.rtl.datapath, /*with_controller=*/true);
  const ProvenanceMap without =
      make_component_map(syn.rtl.datapath, /*with_controller=*/false);
  EXPECT_GE(with.find(CompKind::kController, -1), 0);
  EXPECT_EQ(without.find(CompKind::kController, -1), -1);
  EXPECT_EQ(with.components.size(), without.components.size() + 1);
}

TEST(ComponentMap, OpListsAreSortedAndDeduped) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  for (const ProvComponent& c : d.ed.provenance.components) {
    EXPECT_TRUE(std::is_sorted(c.ops.begin(), c.ops.end()));
    EXPECT_EQ(std::adjacent_find(c.ops.begin(), c.ops.end()), c.ops.end());
    for (cdfg::OpId o : c.ops) {
      EXPECT_GE(o, 0);
      EXPECT_LT(o, d.g.num_ops());
    }
  }
}

TEST(ComponentMap, DegradesToEmptyOpsOnHandBuiltDatapath) {
  rtl::Datapath dp;
  dp.name = "hand";
  dp.regs.resize(2);
  dp.regs[0].name = "A";
  dp.regs[0].width = 4;
  dp.regs[1].name = "B";
  dp.regs[1].width = 4;
  dp.regs[1].drivers.push_back({rtl::Source::Kind::kRegister, 0});
  // No driver_ops recorded at all — the map must still build.
  const ProvenanceMap map = make_component_map(dp, false);
  EXPECT_GE(map.find(CompKind::kRegister, 0), 0);
  EXPECT_GE(map.find(CompKind::kRegMux, 1), 0);
  for (const ProvComponent& c : map.components) EXPECT_TRUE(c.ops.empty());
}

// ---------------------------------------------------------------------------
// Node attribution (the expand-side contract)
// ---------------------------------------------------------------------------

TEST(Attribution, EveryNodeAttributedOnFullScan) {
  for (int bench = 0; bench < 2; ++bench) {
    const ScanDesign d =
        full_scan(bench == 0 ? cdfg::diffeq() : cdfg::tseng(), 4);
    const ProvenanceMap& map = d.ed.provenance;
    ASSERT_EQ(static_cast<int>(map.comp_of_node.size()),
              d.ed.netlist.num_nodes());
    for (int n = 0; n < d.ed.netlist.num_nodes(); ++n) {
      const int c = map.component_of(n);
      ASSERT_GE(c, 0) << "node " << n << " unattributed";
      ASSERT_LT(c, static_cast<int>(map.components.size()));
    }
    EXPECT_EQ(map.num_attributed(), d.ed.netlist.num_nodes());
  }
}

TEST(Attribution, EveryCollapsedFaultMapsToComponentWithOps) {
  // The acceptance criterion: every collapsed fault on diffeq and tseng
  // full-scan maps to exactly one RTL component, and that component names
  // at least one CDFG op — no orphans anywhere in the chain.
  for (int bench = 0; bench < 2; ++bench) {
    const ScanDesign d =
        full_scan(bench == 0 ? cdfg::diffeq() : cdfg::tseng(), 4);
    const ProvenanceMap& map = d.ed.provenance;
    for (const gl::Fault& f : d.faults) {
      const int c = map.component_of(f.node);
      ASSERT_GE(c, 0) << "fault on node " << f.node << " is an orphan";
      EXPECT_GE(map.components[static_cast<std::size_t>(c)].ops.size(), 1u)
          << "component " << map.components[static_cast<std::size_t>(c)].name
          << " has a fault but no CDFG ops";
    }
  }
}

TEST(Attribution, RecordingOffLeavesMapEmptyAndNetlistIdentical) {
  const cdfg::Cdfg g = cdfg::diffeq();
  hls::SynthesisOptions sopts;
  const hls::Synthesis syn = hls::synthesize(g, sopts);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions on;
  on.width_override = 4;
  gl::ExpandOptions off = on;
  off.record_provenance = false;
  const gl::ExpandedDesign a = gl::expand_datapath(dp, on);
  const gl::ExpandedDesign b = gl::expand_datapath(dp, off);
  EXPECT_TRUE(b.provenance.empty());
  EXPECT_TRUE(b.provenance.comp_of_node.empty());
  ASSERT_EQ(a.netlist.num_nodes(), b.netlist.num_nodes());
  for (int n = 0; n < a.netlist.num_nodes(); ++n) {
    EXPECT_EQ(a.netlist.node(n).type, b.netlist.node(n).type);
    EXPECT_EQ(a.netlist.node(n).fanins, b.netlist.node(n).fanins);
    EXPECT_EQ(a.netlist.node(n).name, b.netlist.node(n).name);
  }
}

TEST(Attribution, ControlLinesBelongToConsumerMux) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const ProvenanceMap& map = d.ed.provenance;
  const Netlist& n = d.ed.netlist;
  // Free control inputs carry the consumer's select/load names; each must
  // be attributed to a mux (or register) component, never left orphaned.
  for (int node : d.ed.control_inputs) {
    const int c = map.component_of(node);
    ASSERT_GE(c, 0);
    const CompKind k = map.components[static_cast<std::size_t>(c)].kind;
    EXPECT_TRUE(k == CompKind::kRegMux || k == CompKind::kFuMux ||
                k == CompKind::kRegister || k == CompKind::kFu)
        << n.node(node).name << " attributed to kind " << to_string(k);
  }
}

TEST(Attribution, ControllerModeAttributesCounterToController) {
  const hls::Synthesis syn = hls::synthesize(cdfg::diffeq(), {});
  gl::ExpandOptions x;
  x.width_override = 4;
  x.controller = &syn.rtl.controller;
  const gl::ExpandedDesign ed = gl::expand_datapath(syn.rtl.datapath, x);
  const ProvenanceMap& map = ed.provenance;
  const int ctl = map.find(CompKind::kController, -1);
  ASSERT_GE(ctl, 0);
  for (int ff : ed.controller_state) EXPECT_EQ(map.component_of(ff), ctl);
  EXPECT_EQ(map.num_attributed(), ed.netlist.num_nodes());
}

// ---------------------------------------------------------------------------
// Netlist name uniqueness (satellite)
// ---------------------------------------------------------------------------

TEST(NetlistNames, CollisionsGetHashSuffix) {
  Netlist n;
  const int a = n.add_input("x");
  const int b = n.add_input("x");
  const int c = n.add_gate(gl::GateType::kAnd, {a, b}, "x");
  EXPECT_EQ(n.node(a).name, "x");
  EXPECT_EQ(n.node(b).name, "x#1");
  EXPECT_EQ(n.node(c).name, "x#2");
  // A name that already looks like a suffixed one is respected, and the
  // probe skips over it.
  const int d = n.add_gate(gl::GateType::kOr, {a, b}, "y#1");
  const int e = n.add_gate(gl::GateType::kOr, {a, c}, "y#1");
  EXPECT_EQ(n.node(d).name, "y#1");
  EXPECT_EQ(n.node(e).name, "y#1#1");
  n.mark_output(c);
  n.validate();  // debug builds assert uniqueness
}

TEST(NetlistNames, ExpansionNamesAreUnique) {
  // Before the fix, every multi-driver port of one FU named its select
  // lines identically ("sel_<fu>#k"); the collapsed fault report could
  // not tell them apart.
  for (int mode = 0; mode < 2; ++mode) {
    const hls::Synthesis syn = hls::synthesize(cdfg::diffeq(), {});
    rtl::Datapath dp = syn.rtl.datapath;
    if (mode == 0)
      for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
    gl::ExpandOptions x;
    x.width_override = 4;
    if (mode == 1) x.controller = &syn.rtl.controller;
    const Netlist n = gl::expand_datapath(dp, x).netlist;
    std::set<std::string> seen;
    for (int i = 0; i < n.num_nodes(); ++i) {
      const std::string& name = n.node(i).name;
      if (name.empty()) continue;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    }
  }
}

TEST(NetlistNames, FuPortSelectsCarryPortIndex) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const Netlist& n = d.ed.netlist;
  bool saw_port_sel = false;
  for (int node : d.ed.control_inputs) {
    const std::string& name = n.node(node).name;
    if (name.rfind("sel_", 0) == 0 && name.find("_p") != std::string::npos)
      saw_port_sel = true;
  }
  EXPECT_TRUE(saw_port_sel)
      << "expected at least one per-port FU select input (sel_<fu>_p<k>)";
}

// ---------------------------------------------------------------------------
// Ledger join: reconciliation + determinism
// ---------------------------------------------------------------------------

#ifndef TSYN_LEDGER_NOOP

/// The CLI report pipeline: compacted ATPG with the ledger on, final
/// grading pass, snapshot.
LedgerSnapshot run_campaign(const Netlist& n,
                            const std::vector<gl::Fault>& faults,
                            double* coverage = nullptr) {
  ledger_reset();
  ledger_enable();
  compaction::CompactionOptions copts;
  copts.mode = compaction::CompactMode::kStatic;
  const compaction::CompactedCampaign c =
      compaction::run_compacted_atpg(n, faults, copts);
  {
    LedgerPhase phase("ship.ndetect");
    (void)compaction::detection_matrix(n, c.patterns, faults);
  }
  ledger_disable();
  if (coverage) *coverage = c.campaign.fault_coverage;
  return ledger_snapshot();
}

TEST(CoverageAttribution, ComponentCountsReconcileExactly) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  double campaign_cov = 0;
  const LedgerSnapshot led =
      run_campaign(d.ed.netlist, d.faults, &campaign_cov);
  const ProvenanceAttribution attr =
      attribute_coverage(d.ed.provenance, led);

  EXPECT_EQ(attr.total_faults,
            static_cast<std::int64_t>(led.journeys.size()));
  EXPECT_EQ(attr.orphan_faults, 0);

  // Exact integer reconciliation: every journey lands in one component.
  std::int64_t faults = 0, detected = 0, dropped = 0, redundant = 0,
               aborted = 0, undetected = 0, decisions = 0;
  for (const ComponentCoverage& c : attr.components) {
    faults += c.faults;
    detected += c.detected;
    dropped += c.dropped;
    redundant += c.redundant;
    aborted += c.aborted;
    undetected += c.undetected;
    decisions += c.decisions;
  }
  EXPECT_EQ(faults, attr.total_faults);
  EXPECT_EQ(detected, led.detected);
  EXPECT_EQ(dropped, led.dropped);
  EXPECT_EQ(redundant, led.redundant);
  EXPECT_EQ(aborted, led.aborted);
  EXPECT_EQ(undetected, led.undetected);
  EXPECT_EQ(decisions, led.total_decisions);
  EXPECT_EQ(detected + dropped, attr.total_covered);

  // The campaign's global coverage is exactly what the attribution
  // restates: covered / universe.
  ASSERT_GT(attr.total_faults, 0);
  EXPECT_NEAR(static_cast<double>(attr.total_covered) /
                  static_cast<double>(attr.total_faults),
              campaign_cov, 1e-9);
}

TEST(CoverageAttribution, WeightedOpSharesReconcile) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const LedgerSnapshot led = run_campaign(d.ed.netlist, d.faults);
  const ProvenanceAttribution attr =
      attribute_coverage(d.ed.provenance, led);

  double faults_w = attr.unattributed_faults_w;
  double covered_w = attr.unattributed_covered_w;
  for (const OpCoverage& oc : attr.ops) {
    faults_w += oc.faults_w;
    covered_w += oc.covered_w;
  }
  EXPECT_NEAR(faults_w, static_cast<double>(attr.total_faults), 1e-6);
  EXPECT_NEAR(covered_w, static_cast<double>(attr.total_covered), 1e-6);
  // Full scan, all cross references recorded: nothing unattributed.
  EXPECT_EQ(attr.unattributed_faults_w, 0.0);

  // worst_components: ascending coverage, every fault-bearing component
  // listed exactly once.
  for (std::size_t i = 1; i < attr.worst_components.size(); ++i) {
    const auto& prev = attr.components[static_cast<std::size_t>(
        attr.worst_components[i - 1])];
    const auto& cur = attr.components[static_cast<std::size_t>(
        attr.worst_components[i])];
    EXPECT_LE(prev.coverage(), cur.coverage());
  }
  std::int64_t bearing = 0;
  for (const ComponentCoverage& c : attr.components) bearing += c.faults > 0;
  EXPECT_EQ(static_cast<std::int64_t>(attr.worst_components.size()), bearing);
}

TEST(CoverageAttribution, JsonByteIdenticalAcrossThreadCounts) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const Netlist& n = d.ed.netlist;
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 8, 0x5EED);
  ProvenanceMap map = d.ed.provenance;
  annotate_ops(map, d.g, &d.syn.schedule.step_of_op);

  std::vector<std::string> json;
  for (int threads : {1, 2, 8}) {
    ledger_reset();
    ledger_enable();
    record_universe(static_cast<long>(d.faults.size()));
    gl::fault_coverage(n, blocks, d.faults, nullptr,
                       gl::FaultSimOptions{threads});
    ledger_disable();
    const ProvenanceAttribution attr =
        attribute_coverage(map, ledger_snapshot());
    json.push_back(provenance_to_json(map, attr));
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(json[0], json[2]);
  EXPECT_NE(json[0].find("\"schema\": 1"), std::string::npos);
}

TEST(CoverageAttribution, HeatVectorsMergeMuxesAndBoundToUnit) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  const LedgerSnapshot led = run_campaign(d.ed.netlist, d.faults);
  const ProvenanceAttribution attr =
      attribute_coverage(d.ed.provenance, led);

  const std::vector<double> rh =
      register_heat(d.ed.provenance, attr, d.dp.num_regs());
  const std::vector<double> fh =
      fu_heat(d.ed.provenance, attr, d.dp.num_fus());
  const std::vector<double> oh =
      op_heat(d.ed.provenance, attr, d.g.num_ops());
  ASSERT_EQ(static_cast<int>(rh.size()), d.dp.num_regs());
  ASSERT_EQ(static_cast<int>(fh.size()), d.dp.num_fus());
  ASSERT_EQ(static_cast<int>(oh.size()), d.g.num_ops());
  // Every register and FU carries faults on full scan, so no -1 entries;
  // all values are coverages.
  for (double v : rh) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double v : fh) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double v : oh) EXPECT_LE(v, 1.0);
}

TEST(CoverageAttribution, ControlBytesInNamesStayParseable) {
  // Behavior, variable and op names reach the run report verbatim (the
  // title, component names, op labels); control bytes and quotes must
  // come out escaped so the report parses.
  cdfg::Cdfg g("odd\x01name");
  const cdfg::VarId a = g.add_input("a\x01");
  const cdfg::VarId b = g.add_input("b\"\\");
  g.mark_output(g.add_op(cdfg::OpKind::kAdd, "s\r\n\t", {a, b}, "op\x02"));
  ScanDesign d = full_scan(std::move(g), 2);
  annotate_ops(d.ed.provenance, d.g, &d.syn.schedule.step_of_op);
  RunReport r;
  r.title = d.g.name() + " w2";
  r.behavior = "dir\x1f/odd.cdfg";
  r.ledger = run_campaign(d.ed.netlist, d.faults);
  r.provenance = d.ed.provenance;
  r.attribution = attribute_coverage(r.provenance, r.ledger);

  const util::Json doc = util::Json::parse(report_to_json(r));
  EXPECT_EQ(doc.find("title")->str, r.title);
  EXPECT_EQ(doc.find("design")->find("behavior")->str, r.behavior);
  const util::Json* ops = doc.find("provenance")->find("ops");
  ASSERT_TRUE(ops && ops->is_array() && !ops->arr.empty());
  EXPECT_EQ(ops->arr[0].find("label")->str, r.provenance.op_label[0]);
  EXPECT_NE(r.provenance.op_label[0].find('\x02'), std::string::npos);
}

#endif  // !TSYN_LEDGER_NOOP

// ---------------------------------------------------------------------------
// Op labels
// ---------------------------------------------------------------------------

TEST(AnnotateOps, LabelsReconstructSourceLines) {
  const ScanDesign d = full_scan(cdfg::diffeq(), 4);
  ProvenanceMap map = d.ed.provenance;
  annotate_ops(map, d.g, &d.syn.schedule.step_of_op);
  ASSERT_EQ(static_cast<int>(map.op_label.size()), map.num_ops());
  // Every op referenced by some component has a label with the op kind and
  // its schedule step.
  for (const ProvComponent& c : map.components)
    for (cdfg::OpId o : c.ops) {
      const std::string& label = map.op_label[static_cast<std::size_t>(o)];
      ASSERT_FALSE(label.empty());
      EXPECT_NE(label.find(cdfg::to_string(d.g.op(o).kind)), std::string::npos);
      EXPECT_NE(label.find("@s"), std::string::npos);
    }
  // Without a schedule the step suffix is omitted.
  ProvenanceMap bare = d.ed.provenance;
  annotate_ops(bare, d.g, nullptr);
  for (const std::string& label : bare.op_label)
    EXPECT_EQ(label.find("@s"), std::string::npos);
}

TEST(ProvenanceBuilder, ScopesNestAndFlushByRange) {
  ProvenanceMap map;
  map.components.resize(3);
  ProvenanceBuilder b(&map);
  EXPECT_TRUE(b.enabled());
  b.push(0, 0);   // nodes 0.. belong to comp 0
  b.push(1, 2);   // nodes 2.. to comp 1 (nested)
  b.pop(4);       // nodes 4.. back to comp 0
  b.pop(5);       // nodes 5.. unattributed
  b.finish(6);
  ASSERT_EQ(map.comp_of_node.size(), 6u);
  EXPECT_EQ(map.comp_of_node[0], 0);
  EXPECT_EQ(map.comp_of_node[1], 0);
  EXPECT_EQ(map.comp_of_node[2], 1);
  EXPECT_EQ(map.comp_of_node[3], 1);
  EXPECT_EQ(map.comp_of_node[4], 0);
  EXPECT_EQ(map.comp_of_node[5], -1);
  EXPECT_EQ(map.num_attributed(), 5);

  ProvenanceBuilder noop(nullptr);
  EXPECT_FALSE(noop.enabled());
  noop.push(0, 0);
  noop.pop(3);
  noop.finish(3);  // no map to touch; must not crash
}

}  // namespace
}  // namespace tsyn::observe
