#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <stdexcept>

#include "common.h"
#include "bist/sessions.h"
#include "bist/tfb.h"
#include "cdfg/benchmarks.h"
#include "cdfg/generator.h"
#include "cdfg/parser.h"
#include "compaction/compaction.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/simgraph.h"
#include "hls/binding.h"
#include "hls/datapath_builder.h"
#include "hls/fds.h"
#include "hls/schedule.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "observe/provenance.h"
#include "observe/report.h"
#include "observe/scoap_attr.h"
#include "rtl/area.h"
#include "rtl/sgraph.h"
#include "testability/behavior_analysis.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace tsyn::bench {
namespace {

/// SplitMix64 step: independent sub-seeds from the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

gl::FaultSimOptions sim_options(int threads) {
  gl::FaultSimOptions o;
  o.num_threads = threads;
  return o;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

template <typename T>
void fold(util::Fnv1a& h, const std::vector<T>& v) {
  h.u64(v.size());
  for (const T& x : v) h.i64(static_cast<std::int64_t>(x));
}

void fold_real(util::Fnv1a& h, double v) {
  h.i64(std::llround(v * 1e9));
}

/// Per-design results folded into the pass outcome.
struct DesignResult {
  std::map<std::string, double> quality;  ///< summed over the pass
  std::map<std::string, double> ratios;   ///< averaged over their designs
  std::map<std::string, double> counts;
};

// ---------------------------------------------------------------------------
// hls_dft: the behavioral techniques, no gate level.
// ---------------------------------------------------------------------------

DesignResult run_hls_dft(const Design& d, const Inputs&,
                         const FlowOptions& opts, util::Fnv1a& h) {
  DesignResult r;
  const hls::Resources res = standard_resources();
  cdfg::Cdfg g;
  {
    TSYN_SPAN("layer/cdfg.parse");
    g = cdfg::parse_cdfg(d.text);
  }
  hls::Schedule s;
  {
    TSYN_SPAN("layer/hls.list_schedule");
    s = hls::list_schedule(g, res);
  }
  hls::Binding b;
  {
    TSYN_SPAN("layer/hls.binding");
    b = hls::make_binding(g, s);
  }
  hls::RtlDesign conv;
  {
    TSYN_SPAN("layer/hls.build_rtl");
    conv = hls::build_rtl(g, s, b);
  }
  hls::Schedule fds;
  {
    TSYN_SPAN("layer/hls.fds_schedule");
    fds = hls::force_directed_schedule(g, s.num_steps + 2);
  }
  testability::BehaviorTestability bt;
  {
    TSYN_SPAN("layer/testability.behavior");
    bt = testability::analyze_behavior(g);
  }
  std::vector<cdfg::VarId> mfvs, loopcut;
  {
    TSYN_SPAN("layer/testability.scan_select");
    mfvs = testability::select_scan_vars_mfvs(g);
    loopcut = testability::select_scan_vars_loopcut(g);
  }
  testability::LoopAvoidResult la;
  {
    TSYN_SPAN("layer/testability.loop_avoid");
    testability::LoopAvoidOptions lo;
    lo.resources = res;
    lo.scan_vars = loopcut;
    la = testability::loop_avoiding_synthesis(g, lo);
  }
  hls::RtlDesign la_rtl;
  {
    TSYN_SPAN("layer/hls.build_rtl");
    la_rtl = hls::build_rtl(g, la.schedule, la.binding);
  }
  bist::TfbResult tfb;
  {
    TSYN_SPAN("layer/bist.tfb");
    tfb = bist::tfb_synthesis(g, s);
  }
  bist::XtfbResult xtfb;
  {
    TSYN_SPAN("layer/bist.xtfb");
    xtfb = bist::xtfb_synthesis(g, s);
  }
  bist::SessionAnalysis sessions;
  {
    TSYN_SPAN("layer/bist.sessions");
    sessions = bist::schedule_test_sessions(g, b);
  }
  int mfvs_regs = 0, scan_regs = 0;
  {
    TSYN_SPAN("layer/testability.apply_scan");
    mfvs_regs = testability::apply_scan(g, b, mfvs, conv.datapath);
    scan_regs = testability::apply_scan(g, la.binding, loopcut,
                                        la_rtl.datapath);
  }
  rtl::LoopStats loops;
  double area = 0;
  {
    TSYN_SPAN("layer/rtl.analysis");
    loops = rtl::loop_stats(la_rtl.datapath, /*exclude_scan=*/true);
    area = rtl::datapath_area(la_rtl.datapath);
  }

  if (opts.check) {
    hls::validate_schedule(g, s, res);
    hls::validate_binding(g, s, b);
    hls::validate_schedule(g, fds, hls::Resources{});
    check(fds.num_steps == s.num_steps + 2, "FDS schedule length");
    hls::validate_schedule(g, la.schedule, res);
    hls::validate_binding(g, la.schedule, la.binding);
  }

  fold(h, s.step_of_op);
  fold(h, b.fu_of_op);
  fold(h, b.reg_of_lifetime);
  fold(h, fds.step_of_op);
  fold(h, bt.ctrl);
  fold(h, bt.obs);
  fold(h, mfvs);
  fold(h, loopcut);
  fold(h, la.schedule.step_of_op);
  fold(h, la.binding.fu_of_op);
  fold(h, la.binding.reg_of_lifetime);
  h.i64(tfb.num_tfbs).i64(tfb.num_input_regs).i64(xtfb.num_alus);
  h.i64(xtfb.cbilbos).i64(sessions.num_sessions).i64(sessions.num_conflicts);
  h.i64(mfvs_regs).i64(scan_regs).i64(loops.self_loops);
  h.i64(loops.cdfg_loops).i64(loops.assignment_loops);
  fold_real(h, area);

  r.quality["scan_regs"] = scan_regs;
  r.quality["mfvs_scan_regs"] = mfvs_regs;
  r.quality["assignment_loops"] = loops.assignment_loops;
  r.quality["area_ge"] = area;
  r.quality["test_sessions"] = sessions.num_sessions;
  return r;
}

// ---------------------------------------------------------------------------
// Front halves shared by the gate-level workloads.
// ---------------------------------------------------------------------------

/// Parse + conventional synthesis.
void front_end(const Design& d, cdfg::Cdfg* g, hls::Synthesis* syn) {
  {
    TSYN_SPAN("layer/cdfg.parse");
    *g = cdfg::parse_cdfg(d.text);
  }
  TSYN_SPAN("layer/hls.synthesize");
  *syn = synthesize_standard(*g);
}

/// MFVS partial scan of a conventionally synthesized design, expanded to
/// the still-sequential netlist (partial_scan).
struct PartialScan {
  cdfg::Cdfg g;
  hls::Synthesis syn;
  int scan_regs = 0;
  gl::ExpandedDesign ed;
  std::vector<gl::Fault> faults;
};

void partial_scan(int width, PartialScan* ps) {
  rtl::Datapath dp = ps->syn.rtl.datapath;
  std::vector<cdfg::VarId> mfvs;
  {
    TSYN_SPAN("layer/testability.scan_select");
    mfvs = testability::select_scan_vars_mfvs(ps->g);
  }
  {
    TSYN_SPAN("layer/testability.apply_scan");
    ps->scan_regs = testability::apply_scan(ps->g, ps->syn.binding, mfvs, dp);
  }
  {
    TSYN_SPAN("layer/gatelevel.expand");
    gl::ExpandOptions eo;
    eo.width_override = width;
    ps->ed = gl::expand_datapath(dp, eo);
  }
  {
    TSYN_SPAN("layer/gatelevel.lower");
    (void)gl::SimGraph::of(ps->ed.netlist);
  }
  {
    TSYN_SPAN("layer/gatelevel.enumerate_faults");
    ps->faults = gl::enumerate_faults(ps->ed.netlist);
  }
}

// ---------------------------------------------------------------------------
// fullscan: the `tsyn_cli report` flow through library calls.
// ---------------------------------------------------------------------------

DesignResult run_fullscan(const Design& d, const Inputs& in,
                          const FlowOptions& opts, util::Fnv1a& h) {
  DesignResult r;
  const gl::FaultSimOptions sim = sim_options(opts.threads);
  cdfg::Cdfg g;
  hls::Synthesis syn;
  front_end(d, &g, &syn);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandedDesign ed;
  {
    TSYN_SPAN("layer/gatelevel.expand");
    gl::ExpandOptions eo;
    eo.width_override = d.width;
    ed = gl::expand_datapath(dp, eo);
  }
  const gl::Netlist& n = ed.netlist;
  {
    TSYN_SPAN("layer/observe.annotate");
    observe::annotate_ops(ed.provenance, g, &syn.schedule.step_of_op);
  }
  {
    TSYN_SPAN("layer/gatelevel.lower");
    (void)gl::SimGraph::of(n);
  }
  std::vector<gl::Fault> faults;
  {
    TSYN_SPAN("layer/gatelevel.enumerate_faults");
    faults = gl::enumerate_faults(n);
  }

  compaction::CompactionOptions copts;
  copts.mode = compaction::CompactMode::kStatic;
  copts.fill_seed = sub_seed(in.seed, 0xF111);
  {
    TSYN_SPAN("layer/observe.ledger_reset");
    observe::ledger_reset();
    observe::ledger_enable();
  }
  compaction::CompactedCampaign c;
  {
    TSYN_SPAN("layer/compaction.self");
    c = compaction::run_compacted_atpg(n, faults, copts, 10000, sim);
  }
  {
    TSYN_SPAN("layer/compaction.ship_grade");
    observe::LedgerPhase phase("ship.ndetect");
    (void)compaction::detection_matrix(n, c.patterns, faults, sim);
  }
  observe::ledger_disable();
  const double ledger_events =
      static_cast<double>(observe::ledger_event_count());
  observe::RunReport rep;
  {
    TSYN_SPAN("layer/observe.ledger_snapshot");
    rep.ledger = observe::ledger_snapshot();
  }
  {
    TSYN_SPAN("layer/observe.scoap");
    rep.scoap = observe::attribute_scoap(n, rep.ledger, /*top_k=*/10);
  }
  {
    TSYN_SPAN("layer/observe.attribution");
    rep.provenance = std::move(ed.provenance);
    rep.attribution = observe::attribute_coverage(rep.provenance, rep.ledger);
  }
  std::string json;
  {
    TSYN_SPAN("layer/observe.report_json");
    rep.title = g.name() + " w" + std::to_string(d.width) + " static";
    rep.behavior = d.name;
    rep.compact_mode = compaction::to_string(copts.mode);
    rep.xfill = compaction::to_string(copts.xfill);
    rep.width = d.width;
    rep.gates = n.gate_count();
    rep.pis = static_cast<std::int64_t>(n.primary_inputs().size());
    rep.faults = static_cast<std::int64_t>(faults.size());
    rep.fault_coverage = c.campaign.fault_coverage;
    rep.fault_efficiency = c.campaign.fault_efficiency;
    rep.cubes = c.stats.cubes_generated;
    rep.patterns = static_cast<std::int64_t>(c.patterns.size());
    rep.baseline_patterns = c.baseline_patterns;
    rep.metrics_json = util::metrics().to_json();
    json = observe::report_to_json(rep);
  }

  check(c.pattern_coverage >= c.campaign.fault_coverage,
        "pattern_coverage >= campaign coverage");
  if (opts.check) {
    gl::FaultSimOptions serial;
    serial.num_threads = 1;
    serial.lanes = 64;
    const double regraded = gl::fault_coverage(
        n, compaction::patterns_to_blocks(c.patterns), faults, nullptr,
        serial);
    check(regraded == c.pattern_coverage,
          "64-lane serial re-grade reproduces pattern_coverage");
    (void)util::Json::parse(json);
  }

  fold(h, c.campaign.status);
  h.u64(c.patterns.size());
  for (const compaction::TestCube& p : c.patterns) fold(h, p);
  fold_real(h, c.pattern_coverage);
  h.i64(c.baseline_patterns).i64(c.stats.cubes_after_merge);
  h.i64(c.stats.patterns_pruned).i64(c.stats.topup_patterns);
  h.i64(rep.ledger.detected).i64(rep.ledger.dropped).i64(rep.ledger.redundant);
  h.i64(rep.ledger.aborted).i64(rep.ledger.undetected);
  h.i64(rep.ledger.total_decisions).i64(rep.ledger.total_backtracks);
  h.i64(rep.ledger.total_sim_events).u64(rep.ledger.journeys.size());
  fold_real(h, rep.scoap.spearman);
  h.i64(rep.attribution.total_faults).i64(rep.attribution.total_covered);

  r.ratios["fault_coverage"] = c.campaign.fault_coverage;
  r.ratios["fault_efficiency"] = c.campaign.fault_efficiency;
  r.ratios["pattern_coverage"] = c.pattern_coverage;
  r.quality["patterns"] = static_cast<double>(c.patterns.size());
  r.quality["scan_regs"] = static_cast<double>(dp.regs.size());
  r.quality["area_ge"] = rtl::datapath_area(dp);
  r.counts["gatelevel.gates"] = n.gate_count();
  r.counts["gatelevel.faults"] = static_cast<double>(faults.size());
  r.counts["observe.ledger_events"] = ledger_events;
  r.counts["observe.report_bytes"] = static_cast<double>(json.size());
  return r;
}

// ---------------------------------------------------------------------------
// partial_scan, first part: MFVS partial scan, then time-frame PODEM on a
// fault sample.
// ---------------------------------------------------------------------------

constexpr int kSeqSample = 4;

DesignResult run_seq_atpg(const Design& d, const Inputs& in,
                          const FlowOptions& opts, util::Fnv1a& h) {
  DesignResult r;
  PartialScan ps;
  front_end(d, &ps.g, &ps.syn);
  partial_scan(d.width, &ps);
  const gl::Netlist& n = ps.ed.netlist;
  check(ps.ed.sequential(), "MFVS partial scan leaves flip-flops");
  // A strided sample spreads the targets over the whole netlist. The sample
  // itself is fixed: a target costs ~1 ms when PODEM detects it and ~300 ms
  // when it aborts, so a seed-drawn sample of 12 would swing a pass by
  // +-15% and no run-to-run bound could hold. The seed sets the order the
  // campaign targets them in (a detected target's sequence can drop a later
  // one).
  const std::size_t stride = ps.faults.size() / kSeqSample;
  check(stride > 0, "fault list holds the sample");
  std::vector<gl::Fault> sample;
  for (int k = 0; k < kSeqSample; ++k)
    sample.push_back(ps.faults[static_cast<std::size_t>(k) * stride]);
  util::Rng(sub_seed(in.seed, 0x5E9)).shuffle(sample);
  gl::SeqAtpgCampaign c;
  {
    TSYN_SPAN("layer/gatelevel.atpg_seq");
    c = gl::run_sequential_atpg(n, sample, /*max_frames=*/6,
                                /*backtrack_limit=*/1000,
                                sim_options(opts.threads));
  }
  check(c.detected + c.untestable + c.aborted == kSeqSample,
        "detected + untestable + aborted == sample size");

  h.i64(ps.scan_regs);
  for (const gl::Fault& f : sample)
    h.i64(f.node).i64(f.fanin_index).i64(f.stuck_at_one);
  h.i64(c.detected).i64(c.untestable).i64(c.aborted);
  h.i64(c.total.decisions).i64(c.total.backtracks);

  r.ratios["seq_atpg_fault_coverage"] = c.fault_coverage;
  r.ratios["seq_atpg_fault_efficiency"] = c.fault_efficiency;
  r.quality["scan_regs"] = ps.scan_regs;
  r.quality["seq_aborted"] = static_cast<double>(c.aborted);
  r.counts["gatelevel.gates"] = n.gate_count();
  r.counts["gatelevel.faults"] = static_cast<double>(ps.faults.size());
  return r;
}

// ---------------------------------------------------------------------------
// partial_scan, second part: pseudorandom grading, combinational drop mode
// and sequential.
// ---------------------------------------------------------------------------

constexpr int kBistBlocks = 64;
constexpr int kBistFrames = 256;

DesignResult run_bist(const Design& d, const Inputs& in,
                      const FlowOptions& opts, util::Fnv1a& h) {
  DesignResult r;
  const gl::FaultSimOptions sim = sim_options(opts.threads);
  PartialScan ps;
  front_end(d, &ps.g, &ps.syn);

  // Job 1: the full-scan netlist graded drop-mode over LFSR blocks.
  rtl::Datapath full = ps.syn.rtl.datapath;
  for (auto& reg : full.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandedDesign ed;
  {
    TSYN_SPAN("layer/gatelevel.expand");
    gl::ExpandOptions eo;
    eo.width_override = d.width;
    ed = gl::expand_datapath(full, eo);
  }
  const gl::Netlist& n = ed.netlist;
  {
    TSYN_SPAN("layer/gatelevel.lower");
    (void)gl::SimGraph::of(n);
  }
  std::vector<gl::Fault> faults;
  {
    TSYN_SPAN("layer/gatelevel.enumerate_faults");
    faults = gl::enumerate_faults(n);
  }
  std::vector<std::vector<gl::Bits>> blocks;
  {
    TSYN_SPAN("layer/gatelevel.lfsr");
    blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), kBistBlocks,
        sub_seed(in.seed, 0xB15) | 1);
  }
  std::vector<bool> det;
  double cov = 0;
  {
    TSYN_SPAN("layer/gatelevel.faultsim_comb");
    cov = gl::fault_coverage(n, blocks, faults, &det, sim);
  }

  // Job 2: the MFVS partial-scan netlist through the sequential engine.
  partial_scan(d.width, &ps);
  const gl::Netlist& sn = ps.ed.netlist;
  std::vector<std::vector<gl::Bits>> frames;
  {
    TSYN_SPAN("layer/gatelevel.lfsr");
    frames = gl::lfsr_pattern_blocks(
        static_cast<int>(sn.primary_inputs().size()), kBistFrames,
        sub_seed(in.seed, 0x5E0) | 1);
  }
  std::vector<bool> seq_det;
  {
    TSYN_SPAN("layer/gatelevel.faultsim_seq");
    seq_det = gl::sequential_fault_sim(sn, frames, ps.faults, sim);
  }
  if (opts.check)
    check(seq_det == gl::sequential_fault_sim_full_resim(sn, frames,
                                                         ps.faults),
          "event-driven sequential fault sim matches full re-simulation");

  const double seq_cov =
      ps.faults.empty()
          ? 0.0
          : static_cast<double>(std::count(seq_det.begin(), seq_det.end(),
                                           true)) /
                static_cast<double>(ps.faults.size());
  fold(h, det);
  fold(h, seq_det);
  h.i64(ps.scan_regs);

  r.ratios["lfsr_fault_coverage"] = cov;
  r.ratios["seq_fault_coverage"] = seq_cov;
  r.quality["scan_regs"] = ps.scan_regs;
  r.counts["gatelevel.gates"] = n.gate_count() + sn.gate_count();
  r.counts["gatelevel.faults"] =
      static_cast<double>(faults.size() + ps.faults.size());
  return r;
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

Design serialized(const cdfg::Cdfg& g, std::string name, int width,
                  Flow flow) {
  return Design{std::move(name), cdfg::serialize_cdfg(g), width, flow};
}

/// The same behavior with seed-drawn word widths on its inputs and states
/// (temporaries take their first operand's width, as in the parser). Width
/// moves the area and the rest of the datapath's size, not the scheduling,
/// binding and loop-analysis work: a pass costs the same at every seed. The
/// graph structures stay fixed because their cost varies far more than a
/// run-to-run bound allows (README.md, "Seeds").
cdfg::Cdfg with_widths(const cdfg::Cdfg& g, std::uint64_t seed) {
  static constexpr int kWidths[] = {8, 12, 16, 24, 32};
  util::Rng rng(seed);
  cdfg::Cdfg out(g.name());
  std::vector<cdfg::VarId> map(static_cast<std::size_t>(g.num_vars()), -1);
  for (const cdfg::Variable& v : g.vars()) {
    const int w = kWidths[rng.pick_index(std::size(kWidths))];
    if (v.kind == cdfg::VarKind::kPrimaryInput)
      map[v.id] = out.add_input(v.name, w);
    else if (v.kind == cdfg::VarKind::kConstant)
      map[v.id] = out.add_constant(v.name, v.constant_value, v.width);
    else if (v.kind == cdfg::VarKind::kState)
      map[v.id] = out.add_state(v.name, w);
  }
  for (const cdfg::Operation& op : g.ops()) {  // ops are in creation order
    std::vector<cdfg::VarId> ins;
    for (cdfg::VarId v : op.inputs) ins.push_back(map[v]);
    map[op.output] = out.add_op(op.kind, g.var(op.output).name, ins, op.name);
    if (op.guard >= 0) out.set_guard(op.id, map[op.guard], op.guard_polarity);
  }
  for (cdfg::VarId s : g.states())
    out.set_state_update(map[s], map[g.var(s).update_var]);
  for (cdfg::VarId o : g.outputs()) out.mark_output(map[o]);
  return out;
}

std::vector<Design> hls_dft_designs(std::uint64_t seed) {
  std::vector<Design> designs;
  int k = 0;
  for (int ops : {40, 56, 72}) {
    for (int rep = 0; rep < 3; ++rep, ++k) {
      cdfg::GeneratorParams p;
      p.num_ops = ops;
      p.num_states = ops / 16;
      p.seed = static_cast<std::uint64_t>(k + 1);
      designs.push_back(
          serialized(with_widths(cdfg::random_cdfg(p), sub_seed(seed, k)),
                     "random" + std::to_string(ops), 0, Flow::kHlsDft));
    }
  }
  return designs;
}

struct Workload {
  const char* name;
  std::vector<Design> (*designs)(std::uint64_t seed);
};

// Each gate-level workload mixes a part that the shared host slows by up
// to a quarter for minutes at a time (bit-parallel fault simulation and
// grading) with a part it barely moves (PODEM, time-frame PODEM), so that
// one run's median stays within the timing bounds (README.md, "Noise
// bounds").
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table{
      {"hls_dft", hls_dft_designs},
      {"fullscan",
       [](std::uint64_t) {
         // diffeq and iir make PODEM backtrack hard on their multipliers;
         // on the other four ATPG is easy and grading, top-up, the ledger
         // and the report carry the flow.
         return std::vector<Design>{
             serialized(cdfg::diffeq(), "diffeq", 16, Flow::kFullScan),
             serialized(cdfg::iir_biquad(), "iir", 12, Flow::kFullScan),
             serialized(cdfg::fir(8), "fir8", 16, Flow::kFullScan),
             serialized(cdfg::dct4(), "dct4", 16, Flow::kFullScan),
             serialized(cdfg::tseng(), "tseng", 16, Flow::kFullScan),
             serialized(cdfg::ar_lattice(4), "ar4", 16, Flow::kFullScan)};
       }},
      {"partial_scan",
       [](std::uint64_t) {
         return std::vector<Design>{
             serialized(cdfg::diffeq(), "diffeq", 4, Flow::kSeqAtpg),
             serialized(cdfg::iir_biquad(), "iir", 4, Flow::kSeqAtpg),
             serialized(cdfg::tseng(), "tseng", 4, Flow::kSeqAtpg),
             serialized(cdfg::diffeq(), "diffeq", 8, Flow::kBist),
             serialized(cdfg::iir_biquad(), "iir", 8, Flow::kBist),
             serialized(cdfg::ewf(), "ewf", 8, Flow::kBist),
             serialized(cdfg::ar_lattice(4), "ar4", 8, Flow::kBist)};
       }},
  };
  return table;
}

using FlowFn = DesignResult (*)(const Design&, const Inputs&,
                                const FlowOptions&, util::Fnv1a&);

FlowFn flow_of(Flow f) {
  switch (f) {
    case Flow::kHlsDft: return run_hls_dft;
    case Flow::kFullScan: return run_fullscan;
    case Flow::kSeqAtpg: return run_seq_atpg;
    case Flow::kBist: return run_bist;
  }
  throw std::logic_error("unknown flow");
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : workloads()) v.push_back(w.name);
    return v;
  }();
  return names;
}

bool is_workload(const std::string& name) {
  const auto& v = workload_names();
  return std::find(v.begin(), v.end(), name) != v.end();
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  return Inputs{workload, seed, find_workload(workload).designs(seed)};
}

FlowOutcome run_flow(const Inputs& in, const FlowOptions& opts) {
  FlowOutcome out;
  util::Fnv1a h;
  std::map<std::string, std::vector<double>> ratios;
  for (const Design& d : in.designs) {
    ++out.flows;
    h.str(d.name);
    try {
      const DesignResult r = flow_of(d.flow)(d, in, opts, h);
      for (const auto& [k, v] : r.quality) out.quality[k] += v;
      for (const auto& [k, v] : r.ratios) ratios[k].push_back(v);
      for (const auto& [k, v] : r.counts) out.counts[k] += v;
    } catch (const std::exception& e) {
      ++out.failed;
      out.errors.push_back(d.name + " w" + std::to_string(d.width) + ": " +
                           e.what());
      h.str("failed");
    }
  }
  for (const auto& [k, v] : ratios) {
    double sum = 0;
    for (const double x : v) sum += x;
    out.quality[k] = sum / static_cast<double>(v.size());
  }
  out.digest = h.value();
  return out;
}

}  // namespace tsyn::bench
