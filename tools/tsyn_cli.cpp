// tsyn command-line tool: reruns the survey's flows on a built-in
// benchmark (bench:NAME) or a .cdfg file — synthesis with scan selection
// and loop avoidance (synth), behavioral analysis (analyze), self-testable
// architectures (bist), full-scan ATPG with test-set compaction (atpg),
// and the consolidated run report (report, explain).
//
// Every command and every option is declared once, in kCommands and
// kOptions below. Parsing, range and enum checks, the usage text (run
// tsyn_cli with no arguments), output-path collision checks and stdout
// routing are all read from those two tables. Options accept both
// `--opt value` and `--opt=value`; an option the command does not read is
// a usage error.
//
// Exit codes (uniform across commands): 0 success, 1 runtime failure
// (unreadable input, engine error), 2 usage error.
#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bist/bist_assign.h"
#include "bist/sessions.h"
#include "bist/share.h"
#include "bist/test_registers.h"
#include "bist/tfb.h"
#include "cdfg/benchmarks.h"
#include "cdfg/dot.h"
#include "cdfg/loops.h"
#include "cdfg/parser.h"
#include "compaction/compaction.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/scoap.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "observe/provenance.h"
#include "observe/report.h"
#include "observe/scoap_attr.h"
#include "rtl/area.h"
#include "rtl/dot.h"
#include "rtl/sgraph.h"
#include "rtl/verilog.h"
#include "testability/behavior_analysis.h"
#include "testability/loop_avoid.h"
#include "testability/scan_select.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/text.h"
#include "util/trace.h"

namespace {

using namespace tsyn;

/// Human-readable report stream. Normally stdout; stderr when any output
/// option is given "-", so the stream a consumer pipes holds only that
/// artifact.
FILE* g_report = stdout;

/// Prints `msg` (if any) and the usage text from the tables; exit 2.
[[noreturn]] void usage(const std::string& msg = "");

struct Command;

struct Args {
  const Command* cmd = nullptr;
  std::string behavior;  ///< the positional: file.cdfg or bench:NAME
  int alu = 2;
  int mul = 2;
  int steps = 0;
  std::string scan = "none";
  bool loop_avoid = false;
  std::string verilog;
  std::string arch = "tfb";
  std::string trace;
  std::string metrics;
  /// Empty = per-command default: "off" for atpg, "static" for report and
  /// explain (a report without compaction phases has nothing to waterfall).
  std::string compact;
  std::string xfill = "random";
  int width = 4;
  std::string out = "report.json";
  std::string html;
  std::string dot_rtl;
  std::string dot_cdfg;
  std::string fault;  ///< explain: "node/pin/sa" (empty = every undetected)
  // Live telemetry.
  std::string heartbeat;
  int heartbeat_ms = 250;
};

/// Best-effort creation of `path`'s missing parent directories, shared by
/// every file-writing output option. The open that follows reports the
/// real failure if this did not help.
void ensure_parent_dirs(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
}

/// Writes `text` to `path`, with "-" meaning stdout. Missing parent
/// directories are created, so `--trace out/run/trace.json` works on a
/// fresh checkout. Returns success.
bool write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  ensure_parent_dirs(path);
  return util::write_file(path, text);
}

/// Writes one artifact through write_output and, unless it went to
/// stdout, notes it on the human report as "<label>: <what><path><tail>".
/// A failed write prints an error and returns false.
bool emit(const std::string& path, const std::string& text, const char* label,
          const std::string& what = "written to ",
          const std::string& tail = "") {
  if (!write_output(path, text)) {
    std::fprintf(stderr, "error: cannot write %s to %s\n", label,
                 path.c_str());
    return false;
  }
  if (path != "-")
    std::fprintf(g_report, "%-10s: %s%s%s\n", label, what.c_str(),
                 path.c_str(), tail.c_str());
  return true;
}

/// Reads a whole input file; an unreadable one is a runtime failure
/// (exit 1), not a usage error: the invocation was well-formed, the
/// environment let it down.
std::string read_input(const std::string& path) {
  std::string text;
  if (!util::read_file(path, &text))
    throw std::runtime_error("cannot open " + path);
  return text;
}

cdfg::Cdfg load_behavior(const std::string& spec) {
  if (spec.rfind("bench:", 0) == 0) {
    const std::string name = spec.substr(6);
    for (cdfg::Cdfg& g : cdfg::standard_benchmarks())
      if (g.name() == name) return std::move(g);
    usage("unknown benchmark: " + name);
  }
  return cdfg::parse_cdfg(read_input(spec));
}

std::vector<cdfg::VarId> select_scan(const cdfg::Cdfg& g,
                                     const std::string& mode) {
  if (mode == "none") return {};
  if (mode == "mfvs") return testability::select_scan_vars_mfvs(g);
  if (mode == "loopcut") return testability::select_scan_vars_loopcut(g);
  if (mode == "boundary") return testability::select_scan_vars_boundary(g);
  if (mode == "interior") return testability::select_scan_vars_interior(g);
  usage("unknown scan mode: " + mode);
}

void report_design(const cdfg::Cdfg& g, const hls::Schedule& s,
                   const hls::Binding& b, const rtl::Datapath& dp) {
  const rtl::LoopStats loops = rtl::loop_stats(dp);
  std::fprintf(g_report, "behavior  : %s (%d ops, %zu states)\n", g.name().c_str(),
              g.num_ops(), g.states().size());
  std::fprintf(g_report, "schedule  : %d control steps\n", s.num_steps);
  std::fprintf(g_report, "resources : %d FUs, %d registers, %d mux2\n", b.num_fus(),
              b.num_regs, dp.mux2_count());
  std::fprintf(g_report, "area      : %.0f GE (test overhead %.1f%%)\n",
              rtl::datapath_area(dp), 100 * rtl::test_area_overhead(dp));
  std::fprintf(g_report, "S-graph   : registers on loops: %d self, %d assignment, "
              "%d CDFG (state)\n",
              loops.self_loops, loops.assignment_loops, loops.cdfg_loops);
  std::fprintf(g_report, "scan      : %zu scan registers\n",
              dp.scan_registers().size());
}

/// Bounded gate-level quick-look for the synth run report: expands the
/// synthesized datapath at a narrow width, fault-simulates a short random
/// budget, and runs a capped ATPG campaign. The point is a fault-coverage
/// sanity line plus populated fault-sim/ATPG sections in --metrics/--trace
/// output, not a definitive coverage number — the caps keep it around a
/// second even on the larger benchmarks.
void gatelevel_quicklook(const rtl::Datapath& dp) {
  TSYN_SPAN("gl.quicklook");
  gl::ExpandOptions eo;
  eo.width_override = 4;
  const gl::ExpandedDesign ed = gl::expand_datapath(dp, eo);
  const gl::Netlist& n = ed.netlist;
  std::vector<gl::Fault> faults = gl::enumerate_faults(n);

  util::Rng rng(0xC0FFEE);
  auto random_frame = [&]() {
    std::vector<gl::Bits> frame(n.primary_inputs().size());
    for (gl::Bits& b : frame) b = gl::Bits::known(rng.next_u64());
    return frame;
  };

  if (ed.sequential()) {
    // 64 lanes x 8 frames of random vectors through the sequential fault
    // simulator, then bounded sequential ATPG on a fault slice.
    std::vector<std::vector<gl::Bits>> frames;
    for (int f = 0; f < 8; ++f) frames.push_back(random_frame());
    std::vector<gl::Fault> sim_faults = faults;
    if (sim_faults.size() > 512) sim_faults.resize(512);
    const std::vector<bool> det = gl::sequential_fault_sim(n, frames, sim_faults);
    const long hits =
        std::count(det.begin(), det.end(), true);
    std::vector<gl::Fault> atpg_faults = faults;
    if (atpg_faults.size() > 48) atpg_faults.resize(48);
    const gl::SeqAtpgCampaign c = gl::run_sequential_atpg(
        n, atpg_faults, /*max_frames=*/3, /*backtrack_limit=*/1000);
    std::fprintf(g_report,
                 "gatelevel : %d gates, %zu flops (width 4); random 8-frame "
                 "sim detects %ld/%zu faults\n",
                 n.gate_count(), n.flops().size(), hits, sim_faults.size());
    std::fprintf(g_report,
                 "atpg      : seq, %zu-fault slice: %ld detected, %ld "
                 "untestable, %ld aborted (%.1f%% coverage)\n",
                 atpg_faults.size(), c.detected, c.untestable, c.aborted,
                 100 * c.fault_coverage);
  } else {
    // Fully scanned (or purely combinational): 8 random 64-lane blocks,
    // then a capped PODEM campaign.
    std::vector<std::vector<gl::Bits>> blocks;
    for (int bl = 0; bl < 8; ++bl) blocks.push_back(random_frame());
    std::vector<bool> det;
    gl::fault_coverage(n, blocks, faults, &det);
    const long hits = std::count(det.begin(), det.end(), true);
    std::vector<gl::Fault> atpg_faults = faults;
    if (atpg_faults.size() > 256) atpg_faults.resize(256);
    const gl::AtpgCampaign c =
        gl::run_combinational_atpg(n, atpg_faults, /*backtrack_limit=*/2000);
    std::fprintf(g_report,
                 "gatelevel : %d gates, comb (width 4); random 512-vector "
                 "sim detects %ld/%zu faults\n",
                 n.gate_count(), hits, faults.size());
    std::fprintf(g_report,
                 "atpg      : comb, %zu-fault slice: %zu tests, %.1f%% "
                 "coverage, %.1f%% efficiency\n",
                 atpg_faults.size(), c.tests.size(), 100 * c.fault_coverage,
                 100 * c.fault_efficiency);
  }
}

int cmd_synth(const Args& a) {
  TSYN_SPAN("cli.synth");
  const cdfg::Cdfg g = load_behavior(a.behavior);
  const hls::Resources res{{cdfg::FuType::kAlu, a.alu},
                           {cdfg::FuType::kMultiplier, a.mul}};
  const std::vector<cdfg::VarId> scan_vars = select_scan(g, a.scan);

  hls::Schedule schedule;
  hls::Binding binding;
  if (a.loop_avoid) {
    testability::LoopAvoidOptions opts;
    opts.resources = res;
    opts.num_steps = a.steps;
    opts.scan_vars = scan_vars;
    testability::LoopAvoidResult r =
        testability::loop_avoiding_synthesis(g, opts);
    schedule = std::move(r.schedule);
    binding = std::move(r.binding);
  } else {
    hls::SynthesisOptions opts;
    opts.resources = res;
    opts.num_steps = a.steps;
    hls::Synthesis r = hls::synthesize(g, opts);
    schedule = std::move(r.schedule);
    binding = std::move(r.binding);
  }
  hls::RtlDesign design = hls::build_rtl(g, schedule, binding);
  if (!scan_vars.empty())
    testability::apply_scan(g, binding, scan_vars, design.datapath);
  report_design(g, schedule, binding, design.datapath);
  gatelevel_quicklook(design.datapath);

  if (a.verilog.empty()) return 0;
  const std::string v = rtl::emit_verilog(design.datapath, design.controller);
  return emit(a.verilog, v, "verilog", "written to ",
              " (" + std::to_string(v.size()) + " bytes)")
             ? 0
             : 1;
}

/// Cap on the CDFG loops the CLI enumerates.
constexpr std::size_t kMaxCdfgLoops = 10000;

/// The behavior's CDFG loop count: "N", or ">=N" when the enumeration
/// stopped at kMaxCdfgLoops loops and N is only a lower bound.
std::string cdfg_loop_count(const cdfg::Cdfg& g) {
  const std::size_t n = cdfg::cdfg_loops(g, kMaxCdfgLoops).size();
  return (n >= kMaxCdfgLoops ? ">=" : "") + std::to_string(n);
}

int cmd_analyze(const Args& a) {
  TSYN_SPAN("cli.analyze");
  const cdfg::Cdfg g = load_behavior(a.behavior);
  std::fprintf(g_report, "%s\n", g.to_string().c_str());
  std::fprintf(g_report, "CDFG loops: %s\n", cdfg_loop_count(g).c_str());
  const testability::BehaviorTestability t =
      testability::analyze_behavior(g);
  std::fprintf(g_report, 
      "controllable: %d fully, %d partially, %d not\n"
      "observable  : %d fully, %d partially, %d not\n",
      t.count_ctrl(testability::CtrlClass::kControllable),
      t.count_ctrl(testability::CtrlClass::kPartial),
      t.count_ctrl(testability::CtrlClass::kUncontrollable),
      t.count_obs(testability::ObsClass::kObservable),
      t.count_obs(testability::ObsClass::kPartial),
      t.count_obs(testability::ObsClass::kUnobservable));
  for (const std::string mode : {"mfvs", "loopcut", "boundary", "interior"}) {
    const auto vars = select_scan(g, mode);
    std::fprintf(g_report, "scan selection %-9s: %zu variables\n", mode.c_str(),
                vars.size());
  }
  return 0;
}

int cmd_bist(const Args& a) {
  TSYN_SPAN("cli.bist");
  const cdfg::Cdfg g = load_behavior(a.behavior);
  const hls::Resources res{{cdfg::FuType::kAlu, a.alu},
                           {cdfg::FuType::kMultiplier, a.mul}};
  const hls::Schedule s = hls::list_schedule(g, res);

  hls::Binding binding;
  if (a.arch == "tfb") {
    bist::TfbResult r = bist::tfb_synthesis(g, s);
    binding = std::move(r.binding);
    std::fprintf(g_report, "architecture: TFB [31] (%d TFBs + %d input regs)\n",
                r.num_tfbs, r.num_input_regs);
  } else if (a.arch == "xtfb") {
    bist::XtfbResult r = bist::xtfb_synthesis(g, s);
    binding = std::move(r.binding);
    std::fprintf(g_report, "architecture: XTFB [19] (%d ALUs)\n", r.num_alus);
  } else if (a.arch == "avra") {
    binding = hls::make_binding(g, s);
    hls::rebind_registers(g, binding,
                          bist::bist_aware_register_assignment(g, binding));
    std::fprintf(g_report, "architecture: adjacency-aware registers [3]\n");
  } else if (a.arch == "share") {
    binding = hls::make_binding(g, s);
    const bist::ShareResult r = bist::sharing_register_assignment(g, binding);
    hls::rebind_registers(g, binding, r.reg_of_lifetime);
    std::fprintf(g_report, "architecture: TPGR/SR sharing [32]\n");
  } else {  // conventional
    binding = hls::make_binding(g, s);
    std::fprintf(g_report, "architecture: conventional binding\n");
  }

  hls::RtlDesign design = hls::build_rtl(g, s, binding);
  const int cbilbos = bist::configure_bist_conventional(design.datapath);
  const bist::TestRegCounts counts =
      bist::count_test_registers(design.datapath);
  const bist::SessionAnalysis sessions =
      bist::schedule_test_sessions(g, binding);
  report_design(g, s, binding, design.datapath);
  std::fprintf(g_report, "BIST      : %d TPGR, %d SR, %d BILBO, %d CBILBO\n",
              counts.tpgr, counts.sr, counts.bilbo, cbilbos);
  std::fprintf(g_report, "sessions  : %d (%d conflicts over %d modules)\n",
              sessions.num_sessions, sessions.num_conflicts,
              sessions.num_modules);
  return 0;
}

/// The full-scan front half of `atpg`, `report` and `explain`: synthesize,
/// scan every register, expand with provenance recording, annotate the op
/// labels, enumerate the collapsed faults.
struct FullScanDesign {
  cdfg::Cdfg g;
  hls::Synthesis syn;
  rtl::Datapath dp;
  gl::ExpandedDesign ed;
  std::vector<gl::Fault> faults;
};

FullScanDesign build_full_scan(const Args& a) {
  FullScanDesign d;
  d.g = load_behavior(a.behavior);
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, a.alu},
                                  {cdfg::FuType::kMultiplier, a.mul}};
  opts.num_steps = a.steps;
  d.syn = hls::synthesize(d.g, opts);
  d.dp = d.syn.rtl.datapath;
  for (auto& reg : d.dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions eo;
  eo.width_override = a.width;
  d.ed = gl::expand_datapath(d.dp, eo);
  observe::annotate_ops(d.ed.provenance, d.g, &d.syn.schedule.step_of_op);
  d.faults = gl::enumerate_faults(d.ed.netlist);
  return d;
}

/// --compact/--xfill as engine options (the option table already checked
/// both values); `fallback` is the command's --compact default.
compaction::CompactionOptions parse_compaction(const Args& a,
                                               const char* fallback) {
  compaction::CompactionOptions copts;
  compaction::parse_compact_mode(a.compact.empty() ? fallback : a.compact,
                                 &copts.mode);
  compaction::parse_xfill(a.xfill, &copts.xfill);
  return copts;
}

int cmd_atpg(const Args& a) {
  TSYN_SPAN("cli.atpg");
  const compaction::CompactionOptions copts = parse_compaction(a, "off");
  const FullScanDesign d = build_full_scan(a);
  const gl::Netlist& n = d.ed.netlist;
  const compaction::CompactedCampaign c =
      compaction::run_compacted_atpg(n, d.faults, copts);

  const std::size_t pis = n.primary_inputs().size();
  std::fprintf(g_report,
               "gatelevel : %d gates, %zu PIs (full scan, width %d), "
               "%zu faults\n",
               n.gate_count(), pis, a.width, d.faults.size());
  std::fprintf(g_report,
               "atpg      : %ld cubes, %.2f%% coverage, %.2f%% efficiency\n",
               c.stats.cubes_generated, 100 * c.campaign.fault_coverage,
               100 * c.campaign.fault_efficiency);
  std::fprintf(g_report,
               "compaction: mode %s, fill %s; %ld secondary merged, "
               "%ld -> %ld cubes, %ld pruned, %ld top-up\n",
               compaction::to_string(copts.mode),
               compaction::to_string(copts.xfill), c.stats.secondary_merged,
               c.stats.cubes_generated, c.stats.cubes_after_merge,
               c.stats.patterns_pruned, c.stats.topup_patterns);
  std::fprintf(g_report,
               "patterns  : %zu shipped vs %ld baseline (%.1f%% reduction), "
               "%.2f%% coverage\n",
               c.patterns.size(), c.baseline_patterns, 100 * c.reduction(),
               100 * c.pattern_coverage);
  std::fprintf(g_report, "data vol  : %ld bits (%zu patterns x %zu PI bits)\n",
               c.test_data_bits(), c.patterns.size(), pis);
  return 0;
}

/// The compacted ATPG campaign with the fault ledger on, plus a final
/// detection-matrix grading of the shipped set under its own phase.
compaction::CompactedCampaign run_ledgered_campaign(
    const gl::Netlist& n, const std::vector<gl::Fault>& faults,
    const compaction::CompactionOptions& copts,
    observe::LedgerSnapshot* snap) {
  observe::ledger_reset();
  observe::ledger_enable();
  compaction::CompactedCampaign c =
      compaction::run_compacted_atpg(n, faults, copts);
  {
    // Grade the shipped set once more with the matrix grader so the ledger
    // carries the final n-detect profile under its own phase.
    observe::LedgerPhase phase("ship.ndetect");
    (void)compaction::detection_matrix(n, c.patterns, faults);
  }
  observe::ledger_disable();
  *snap = observe::ledger_snapshot();
  return c;
}

/// The atpg flow with the fault-lifecycle ledger enabled, consolidated
/// into a single JSON artifact (and optionally a self-contained HTML
/// page): design numbers, campaign results, per-fault journeys, coverage
/// waterfalls, SCOAP effort attribution, provenance coverage attribution,
/// and the metrics registry.
int cmd_report(const Args& a) {
  TSYN_SPAN("cli.report");
  const compaction::CompactionOptions copts = parse_compaction(a, "static");
  FullScanDesign d = build_full_scan(a);
  const gl::Netlist& n = d.ed.netlist;

  observe::RunReport r;
  const compaction::CompactedCampaign c =
      run_ledgered_campaign(n, d.faults, copts, &r.ledger);

  r.title = d.g.name() + " w" + std::to_string(a.width) + " " +
            compaction::to_string(copts.mode);
  r.behavior = a.behavior;
  r.compact_mode = compaction::to_string(copts.mode);
  r.xfill = compaction::to_string(copts.xfill);
  r.width = a.width;
  r.gates = n.gate_count();
  r.pis = static_cast<std::int64_t>(n.primary_inputs().size());
  r.faults = static_cast<std::int64_t>(d.faults.size());
  r.fault_coverage = c.campaign.fault_coverage;
  r.fault_efficiency = c.campaign.fault_efficiency;
  r.cubes = c.stats.cubes_generated;
  r.patterns = static_cast<std::int64_t>(c.patterns.size());
  r.baseline_patterns = c.baseline_patterns;
  r.scoap = observe::attribute_scoap(n, r.ledger, /*top_k=*/10);
  r.provenance = std::move(d.ed.provenance);
  r.attribution = observe::attribute_coverage(r.provenance, r.ledger);
  // Metrics last, so the attribution join's gauge/histogram are included.
  r.metrics_json = util::metrics().to_json();

  if (!emit(a.out, observe::report_to_json(r) + "\n", "report", "written to ",
            " (" + std::to_string(r.ledger.journeys.size()) + " journeys, " +
                std::to_string(r.ledger.waterfalls.size()) + " waterfalls)"))
    return 1;
  if (!a.html.empty() && !emit(a.html, observe::report_to_html(r), "html"))
    return 1;
  if (!a.dot_rtl.empty()) {
    rtl::DatapathHeat heat;
    heat.reg = observe::register_heat(r.provenance, r.attribution,
                                      d.dp.num_regs());
    heat.fu = observe::fu_heat(r.provenance, r.attribution, d.dp.num_fus());
    if (!emit(a.dot_rtl, rtl::datapath_to_dot(d.dp, &heat), "dot-rtl",
              "heatmap written to "))
      return 1;
  }
  if (!a.dot_cdfg.empty()) {
    const std::vector<double> heat =
        observe::op_heat(r.provenance, r.attribution, d.g.num_ops());
    if (!emit(a.dot_cdfg, cdfg::to_dot(d.g, {}, &heat), "dot-cdfg",
              "heatmap written to "))
      return 1;
  }
  std::fprintf(g_report,
               "atpg      : %.2f%% coverage, %zu patterns vs %ld baseline\n",
               100 * c.campaign.fault_coverage, c.patterns.size(),
               c.baseline_patterns);
  std::fprintf(g_report,
               "scoap     : spearman(predicted, effort) = %.3f over %zu "
               "targeted faults\n",
               r.scoap.spearman, r.scoap.rows.size());
  const std::size_t worst =
      r.attribution.worst_components.empty()
          ? 0
          : static_cast<std::size_t>(r.attribution.worst_components[0]);
  if (!r.attribution.worst_components.empty())
    std::fprintf(g_report,
                 "provenance: %zu components, worst \"%s\" at %.1f%% "
                 "coverage\n",
                 r.provenance.components.size(),
                 r.provenance.components[worst].name.c_str(),
                 100 * r.attribution.components[worst].coverage());
  return 0;
}

/// Prints one fault's full cross-layer chain: the faulted gate with its
/// SCOAP measures, the ledger journey, the RTL component whose expansion
/// created the gate, and the CDFG operations bound onto that component
/// (the behavioral source lines a detected defect would corrupt).
void explain_fault(const FullScanDesign& d, const gl::Scoap& scoap,
                   const observe::ProvenanceAttribution& attr,
                   const observe::FaultJourney& j) {
  const gl::Netlist& n = d.ed.netlist;
  const observe::ProvenanceMap& map = d.ed.provenance;
  const gl::Fault f{j.key.node, j.key.pin, j.key.sa1 != 0};
  std::fprintf(g_report, "fault %d/%d/sa%d: %s\n", j.key.node, j.key.pin,
               static_cast<int>(j.key.sa1), gl::describe(n, f).c_str());
  std::fprintf(g_report,
               "  journey : %s (targeted %d times, %ld decisions, %ld "
               "backtracks, n-detect %ld)\n",
               observe::to_string(j.status), j.targets,
               static_cast<long>(j.decisions), static_cast<long>(j.backtracks),
               static_cast<long>(j.n_detect));
  if (j.key.node >= 0 && j.key.node < static_cast<int>(scoap.cc0.size()))
    std::fprintf(g_report, "  scoap   : cc0=%d cc1=%d co=%d\n",
                 scoap.cc0[static_cast<std::size_t>(j.key.node)],
                 scoap.cc1[static_cast<std::size_t>(j.key.node)],
                 scoap.co[static_cast<std::size_t>(j.key.node)]);
  const int ci = map.component_of(j.key.node);
  if (ci < 0) {
    std::fprintf(g_report, "  origin  : (unattributed node)\n");
    return;
  }
  const observe::ProvComponent& comp =
      map.components[static_cast<std::size_t>(ci)];
  const observe::ComponentCoverage& cov =
      attr.components[static_cast<std::size_t>(ci)];
  std::fprintf(g_report,
               "  origin  : %s (%s), component coverage %.1f%% over %ld "
               "faults\n",
               comp.name.c_str(), observe::to_string(comp.kind),
               100 * cov.coverage(), static_cast<long>(cov.faults));
  if (comp.ops.empty()) {
    std::fprintf(g_report, "  ops     : (none — shared control logic)\n");
    return;
  }
  bool first = true;
  for (cdfg::OpId o : comp.ops) {
    std::string label;
    if (o >= 0 && o < static_cast<int>(map.op_label.size()))
      label = map.op_label[static_cast<std::size_t>(o)];
    if (label.empty()) label = "o" + std::to_string(o);
    std::fprintf(g_report, "  %s %s\n", first ? "ops     :" : "         ",
                 label.c_str());
    first = false;
  }
}

/// Runs the report pipeline (without writing artifacts) and prints the
/// gate -> RTL component -> CDFG op chain for the selected faults:
/// --fault N/P/S for one, otherwise every undetected/aborted fault.
int cmd_explain(const Args& a) {
  TSYN_SPAN("cli.explain");
  const compaction::CompactionOptions copts = parse_compaction(a, "static");
  FullScanDesign d = build_full_scan(a);
  const gl::Netlist& n = d.ed.netlist;

  observe::LedgerSnapshot led;
  const compaction::CompactedCampaign c =
      run_ledgered_campaign(n, d.faults, copts, &led);
  const observe::ProvenanceAttribution attr =
      observe::attribute_coverage(d.ed.provenance, led);
  const gl::Scoap scoap = gl::compute_scoap(n);

  std::fprintf(g_report,
               "campaign  : %.2f%% coverage over %zu faults (%ld detected, "
               "%ld dropped, %ld redundant, %ld aborted, %ld undetected)\n",
               100 * c.campaign.fault_coverage, d.faults.size(),
               static_cast<long>(led.detected), static_cast<long>(led.dropped),
               static_cast<long>(led.redundant),
               static_cast<long>(led.aborted),
               static_cast<long>(led.undetected));

  std::vector<const observe::FaultJourney*> picks;
  if (!a.fault.empty()) {
    int node = 0, pin = 0, sa = 0;
    if (std::sscanf(a.fault.c_str(), "%d/%d/%d", &node, &pin, &sa) != 3)
      usage("--fault expects node/pin/sa, e.g. 123/-1/1");
    for (const observe::FaultJourney& j : led.journeys)
      if (j.key.node == node && j.key.pin == pin && j.key.sa1 == (sa != 0))
        picks.push_back(&j);
    if (picks.empty()) {
      std::fprintf(stderr, "error: fault %s is not in the collapsed list\n",
                   a.fault.c_str());
      return 1;
    }
  } else {
    for (const observe::FaultJourney& j : led.journeys)
      if (j.status == observe::FaultStatus::kUndetected ||
          j.status == observe::FaultStatus::kAborted)
        picks.push_back(&j);
    if (picks.empty()) {
      std::fprintf(g_report,
                   "explain   : nothing to explain — every fault detected, "
                   "dropped, or proven redundant\n");
      return 0;
    }
  }
  constexpr std::size_t kMaxExplained = 25;
  const std::size_t shown = std::min(picks.size(), kMaxExplained);
  for (std::size_t i = 0; i < shown; ++i)
    explain_fault(d, scoap, attr, *picks[i]);
  if (shown < picks.size())
    std::fprintf(g_report, "... and %zu more (use --fault N/P/S to drill in)\n",
                 picks.size() - shown);
  return 0;
}

int cmd_list(const Args&) {
  for (const cdfg::Cdfg& g : cdfg::standard_benchmarks())
    std::fprintf(g_report, "bench:%-8s %3d ops, %2zu states, %s CDFG loops\n",
                 g.name().c_str(), g.num_ops(), g.states().size(),
                 cdfg_loop_count(g).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// The command and option tables
// ---------------------------------------------------------------------------

/// The positional arguments a command takes.
enum class Positional {
  kNone,
  kOne,  ///< one: the behavior
};

/// One command; its telemetry phase is its name.
struct Command {
  const char* name;
  Positional positional;
  const char* synopsis;  ///< the positionals, for the usage text
  const char* help;
  int (*run)(const Args&);
};

const Command kCommands[] = {
    {"synth", Positional::kOne, "<file.cdfg|bench:NAME>",
     "synthesize (scan selection, loop avoidance) and report", cmd_synth},
    {"analyze", Positional::kOne, "<file.cdfg|bench:NAME>",
     "behavioral loops, controllability/observability, scan selection",
     cmd_analyze},
    {"bist", Positional::kOne, "<file.cdfg|bench:NAME>",
     "self-testable synthesis", cmd_bist},
    {"atpg", Positional::kOne, "<file.cdfg|bench:NAME>",
     "full-scan ATPG and test-set compaction", cmd_atpg},
    {"report", Positional::kOne, "<file.cdfg|bench:NAME>",
     "atpg with the fault ledger on: JSON/HTML run report", cmd_report},
    {"explain", Positional::kOne, "<file.cdfg|bench:NAME>",
     "trace faults back: gate -> RTL component -> CDFG op", cmd_explain},
    {"list", Positional::kNone, "", "list the built-in benchmarks", cmd_list},
};

/// Where an option's value goes, if it names an output artifact.
enum class Output {
  kNone,
  kPath,    ///< a file, checked for collisions
  kStdout,  ///< as kPath, and "-" writes the artifact to stdout
};

/// One option. `flag`, `number`, `text` or `parse` says where its value
/// lands; --undetected sets nothing (it names explain's default).
struct Option {
  const char* name;
  const char* value;     ///< usage placeholder; switches have none
  const char* commands;  ///< the commands that read it, space-separated
  const char* help;
  Output output = Output::kNone;
  bool Args::*flag = nullptr;
  int Args::*number = nullptr;
  int min = 0;  ///< the smallest value `number` accepts
  std::string Args::*text = nullptr;
  const char* choices = nullptr;  ///< "a|b|c": the values `text` accepts
  /// Custom value parser. When `text` is set too (--heartbeat), it only
  /// names the path for the collision check.
  void (*parse)(const std::string& value, Args* a) = nullptr;
};

/// Strict integer value: all of `v` must be an integer in [min, INT_MAX]
/// (std::stoi alone accepts "4x" and throws on "x").
int int_arg(const std::string& opt, const std::string& v, int min) {
  std::size_t used = 0;
  long n = 0;
  try {
    n = std::stol(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || n < min || n > INT_MAX)
    usage(opt + " expects an integer >= " + std::to_string(min) +
          " (got \"" + v + "\")");
  return static_cast<int>(n);
}

/// --heartbeat PATH[:MS]. The suffix is an interval only when nonempty and
/// all digits, so plain paths containing ':' stay intact.
void parse_heartbeat(const std::string& v, Args* a) {
  a->heartbeat = v;
  const std::size_t colon = v.rfind(':');
  if (colon == std::string::npos || colon + 1 == v.size()) return;
  const std::string ms = v.substr(colon + 1);
  if (!std::all_of(ms.begin(), ms.end(),
                   [](unsigned char c) { return std::isdigit(c); }))
    return;
  a->heartbeat = v.substr(0, colon);
  a->heartbeat_ms = int_arg("--heartbeat :MS", ms, 1);
}

constexpr const char* kEvery = "synth analyze bist atpg report explain";
constexpr const char* kSynthesizes = "synth bist atpg report explain";
constexpr const char* kFullScan = "atpg report explain";

// Rows that share `commands` stay adjacent: the usage text groups by it.
const Option kOptions[] = {
    {.name = "--trace", .value = "FILE", .commands = kEvery,
     .help = "Chrome trace_event JSON of the run (chrome://tracing)",
     .output = Output::kStdout, .text = &Args::trace},
    {.name = "--metrics", .value = "FILE", .commands = kEvery,
     .help = "metrics-registry JSON run report",
     .output = Output::kStdout, .text = &Args::metrics},
    {.name = "--heartbeat", .value = "FILE[:MS]", .commands = kEvery,
     .help = "JSONL heartbeats every MS ms (default 250; - = stderr)",
     .output = Output::kPath, .text = &Args::heartbeat,
     .parse = parse_heartbeat},
    {.name = "--alu", .value = "N", .commands = kSynthesizes,
     .help = "ALUs to allocate (default 2)", .number = &Args::alu, .min = 1},
    {.name = "--mul", .value = "N", .commands = kSynthesizes,
     .help = "multipliers to allocate (default 2)", .number = &Args::mul,
     .min = 1},
    {.name = "--steps", .value = "N", .commands = "synth atpg report explain",
     .help = "time-constrained schedule length (default 0 = none)",
     .number = &Args::steps},
    {.name = "--scan", .value = nullptr, .commands = "synth",
     .help = "scan variable selection (default none)", .text = &Args::scan,
     .choices = "none|mfvs|loopcut|boundary|interior"},
    {.name = "--loop-avoid", .value = nullptr, .commands = "synth",
     .help = "simultaneous scheduling and register assignment of [33]",
     .flag = &Args::loop_avoid},
    {.name = "--verilog", .value = "FILE", .commands = "synth",
     .help = "the design as Verilog", .output = Output::kStdout,
     .text = &Args::verilog},
    {.name = "--arch", .value = nullptr, .commands = "bist",
     .help = "self-testable architecture (default tfb)", .text = &Args::arch,
     .choices = "conventional|avra|tfb|xtfb|share"},
    {.name = "--compact", .value = nullptr, .commands = kFullScan,
     .help = "compaction (default off; report, explain: static)",
     .text = &Args::compact, .choices = "off|static|dynamic"},
    {.name = "--xfill", .value = nullptr, .commands = kFullScan,
     .help = "don't-care fill (default random)", .text = &Args::xfill,
     .choices = "random|0|1|zero|one|adjacent"},
    {.name = "--width", .value = "N", .commands = kFullScan,
     .help = "gate-level expansion bit width (default 4)",
     .number = &Args::width, .min = 1},
    {.name = "--out", .value = "FILE", .commands = "report",
     .help = "run report JSON (default report.json)",
     .output = Output::kStdout, .text = &Args::out},
    {.name = "--dot-rtl", .value = "FILE", .commands = "report",
     .help = "datapath DOT with a per-component coverage heatmap",
     .output = Output::kStdout, .text = &Args::dot_rtl},
    {.name = "--dot-cdfg", .value = "FILE", .commands = "report",
     .help = "CDFG DOT with a per-operation coverage heatmap",
     .output = Output::kStdout, .text = &Args::dot_cdfg},
    {.name = "--html", .value = "FILE", .commands = "report",
     .help = "self-contained HTML report",
     .output = Output::kStdout, .text = &Args::html},
    {.name = "--fault", .value = "N/P/S", .commands = "explain",
     .help = "one fault: node N, pin P (-1 = output), stuck-at S",
     .text = &Args::fault},
    {.name = "--undetected", .value = nullptr, .commands = "explain",
     .help = "every undetected and aborted fault (the default)"},
};

/// True if `word` is one of the `delims`-separated items of `list`.
bool listed(const char* list, const std::string& word, const char* delims) {
  for (const std::string& item : util::split(list, delims))
    if (item == word) return true;
  return false;
}

bool reads(const Option& o, const Command& c) {
  return listed(o.commands, c.name, " ");
}

void usage_row(const std::string& left, const std::string& help) {
  constexpr int kColumn = 30;
  if (left.size() < kColumn)
    std::fprintf(stderr, "  %-*s%s\n", kColumn, left.c_str(), help.c_str());
  else
    std::fprintf(stderr, "  %s\n  %*s%s\n", left.c_str(), kColumn, "",
                 help.c_str());
}

void usage(const std::string& msg) {
  if (!msg.empty()) std::fprintf(stderr, "error: %s\n\n", msg.c_str());
  std::fprintf(stderr,
               "usage: tsyn_cli <command> [argument] [options]\n\n"
               "commands:\n");
  for (const Command& c : kCommands)
    usage_row(std::string(c.name) + " " + c.synopsis, c.help);
  std::fprintf(stderr,
               "\noptions, as --opt VALUE or --opt=VALUE, by the commands "
               "that read them:\n");
  const char* group = "";
  for (const Option& o : kOptions) {
    if (std::strcmp(o.commands, group) != 0)
      std::fprintf(stderr, " %s:\n", group = o.commands);
    const char* value = o.choices ? o.choices : o.value;
    usage_row(std::string(o.name) + (value ? std::string(" ") + value : ""),
              std::string(o.help) +
                  (o.output == Output::kStdout ? " (- = stdout)" : ""));
  }
  std::fprintf(stderr,
               "\nAn output given \"-\" moves the human report to stderr.\n"
               "Exit codes: 0 success, 1 runtime failure, 2 usage error.\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  for (const Command& c : kCommands)
    if (c.name == std::string(argv[1])) a.cmd = &c;
  if (!a.cmd) usage("unknown command: " + std::string(argv[1]));
  int i = 2;
  if (a.cmd->positional != Positional::kNone) {
    if (argc < 3)
      usage(std::string("missing ") + a.cmd->synopsis + " argument");
    a.behavior = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string opt = argv[i];
    if (opt.empty() || opt[0] != '-') usage("unexpected argument: " + opt);
    // `--opt=value` is equivalent to `--opt value`.
    std::optional<std::string> inline_value;
    if (const std::size_t eq = opt.find('='); eq != std::string::npos) {
      inline_value = opt.substr(eq + 1);
      opt.resize(eq);
    }
    const Option* o = nullptr;
    for (const Option& row : kOptions)
      if (opt == row.name) o = &row;
    if (!o) usage("unknown option: " + opt);
    if (!reads(*o, *a.cmd))
      usage(opt + " is not an option of " + a.cmd->name);
    if (!o->value && !o->choices) {
      if (inline_value) usage(opt + " takes no value");
      if (o->flag) a.*o->flag = true;
      continue;
    }
    if (!inline_value && i + 1 >= argc) usage(opt + " needs a value");
    const std::string v = inline_value ? *inline_value : argv[++i];
    if (o->parse) {
      o->parse(v, &a);
    } else if (o->number) {
      a.*o->number = int_arg(opt, v, o->min);
    } else {
      if (o->choices && !listed(o->choices, v, "|"))
        usage(opt + " expects " + o->choices + " (got \"" + v + "\")");
      a.*o->text = v;
    }
  }
  return a;
}

/// Refuses two outputs aimed at one path (the second write would silently
/// win; "-" is one path too, a stream would interleave two documents) and
/// moves the human report to stderr when an output claims stdout.
bool claim_outputs(const Args& a) {
  std::vector<const Option*> outs;
  for (const Option& o : kOptions)
    if (o.output != Output::kNone && reads(o, *a.cmd) && !(a.*o.text).empty())
      outs.push_back(&o);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const std::string& path = a.*outs[i]->text;
    if (path == "-" && outs[i]->output == Output::kStdout) g_report = stderr;
    for (std::size_t j = i + 1; j < outs.size(); ++j) {
      if (path != a.*outs[j]->text) continue;
      std::fprintf(stderr,
                   "error: %s and %s point at the same output (%s); give "
                   "them distinct paths\n",
                   outs[i]->name, outs[j]->name, path.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (!claim_outputs(a)) return 2;
  if (!a.trace.empty()) util::trace_enable();

  // Live telemetry: the heartbeat stream, written by one background
  // sampler thread.
  if (!a.heartbeat.empty()) {
    util::TelemetryOptions topts;
    topts.heartbeat_path = a.heartbeat;
    topts.interval_ms = a.heartbeat_ms;
    if (!util::telemetry_start(topts)) {
      std::fprintf(stderr, "error: cannot open heartbeat stream %s\n",
                   a.heartbeat.c_str());
      return 1;
    }
  }
  // Make --trace/--metrics artifacts survive a crash or an operator
  // Ctrl-C: best-effort flush of whatever was collected so far. The normal
  // shutdown path below disarms this.
  if (!a.trace.empty() || !a.metrics.empty()) {
    const std::string trace_path = a.trace, metrics_path = a.metrics;
    util::install_crash_flush([trace_path, metrics_path] {
      if (!trace_path.empty()) write_output(trace_path, util::trace_to_json());
      if (!metrics_path.empty())
        write_output(metrics_path, util::metrics().to_json() + "\n");
    });
  }

  // Uniform exit codes: every runtime failure — unreadable input, engine
  // error — surfaces as one stderr line and exit 1. Usage errors exited 2
  // in parse_args; telemetry artifacts below still flush.
  int rc = 0;
  try {
    util::telemetry_set_phase(a.cmd->name);
    rc = a.cmd->run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (util::telemetry_active()) util::telemetry_stop();
  if (!a.trace.empty() &&
      !emit(a.trace, util::trace_to_json(), "trace",
            std::to_string(util::trace_span_count()) + " spans -> "))
    return 1;
  if (!a.metrics.empty() &&
      !emit(a.metrics, util::metrics().to_json() + "\n", "metrics"))
    return 1;
  util::disarm_crash_flush();
  return rc;
}
