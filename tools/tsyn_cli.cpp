// tsyn command-line driver.
//
//   tsyn_cli synth <file.cdfg|bench:NAME> [options]   synthesize + report
//   tsyn_cli analyze <file.cdfg|bench:NAME>           behavioral analysis
//   tsyn_cli bist <file.cdfg|bench:NAME> [options]    self-testable synthesis
//   tsyn_cli atpg <file.cdfg|bench:NAME> [options]    full-scan ATPG +
//                                                     test-set compaction
//   tsyn_cli report <file.cdfg|bench:NAME> [options]  atpg run with the
//                                                     fault ledger on ->
//                                                     JSON/HTML run report
//   tsyn_cli explain <file.cdfg|bench:NAME> [options] trace faults back
//                                                     through the provenance
//                                                     map: gate -> RTL
//                                                     component -> CDFG op
//   tsyn_cli sweep <manifest.json> [options]          campaign orchestrator:
//                                                     run the manifest's
//                                                     design x config grid
//                                                     with stage memoization
//                                                     (see docs/sweep.md)
//   tsyn_cli history <dir> [cmd] [options]            persistent cross-run
//                                                     history store: trend /
//                                                     diff / outliers /
//                                                     ingest / HTML dashboard
//                                                     (see docs/history.md)
//   tsyn_cli serve [options]                          standalone observability
//                                                     daemon: HTTP endpoint
//                                                     only, runs until GET
//                                                     /quitz or SIGINT/TERM
//   tsyn_cli list                                     list built-in benchmarks
//
// Options accept both `--opt value` and `--opt=value`.
//
// Exit codes (uniform across commands): 0 success, 1 runtime failure
// (unreadable input, engine error, failed sweep jobs, baseline mismatch),
// 2 usage error (unknown command/option/enum value, malformed flag).
//
// Common options:
//   --alu N --mul N        FU allocation (default 2/2)
//   --steps N              time-constrained schedule length
//   --width N              datapath bit width override in reports
//   --trace FILE           write a Chrome trace_event JSON of the run
//                          (- for stdout; load in chrome://tracing)
//   --metrics FILE         write the metrics-registry JSON run report
//                          (- for stdout; the human report moves to stderr
//                          so stdout stays machine-parseable)
//   --heartbeat FILE[:MS]  stream live JSONL heartbeats (progress, ETA,
//                          metric snapshot) every MS ms (default 250;
//                          - for stderr)
//   --profile FILE         wall-clock sampling profiler over the live span
//                          stacks; writes collapsed-stack (flamegraph)
//                          text and folds a top-N self-time table into
//                          report JSON/HTML (- for stdout)
//   --progress             live single-line progress view on stderr
//   --watchdog MS          emit a stall diagnostic (per-thread span
//                          stacks, progress deltas) to the heartbeat
//                          stream when no progress for MS ms
//   --log-level LEVEL      error|warn|info|debug (default warn)
//   --serve [ADDR:]PORT    expose the live observability endpoint while the
//                          command runs: /metrics (Prometheus), /progress,
//                          /jobs, /profile?seconds=N, /healthz, /readyz,
//                          and an HTML dashboard at / (PORT 0 = ephemeral;
//                          the bound "serving on ADDR:PORT" line goes to
//                          stderr; see docs/observability.md)
// synth options:
//   --scan MODE            none|mfvs|loopcut|boundary|interior (default none)
//   --loop-avoid           use the simultaneous scheduler/assigner of [33]
//   --verilog FILE         write the design as Verilog (- for stdout)
// bist options:
//   --arch A               conventional|avra|tfb|xtfb|share (default tfb)
// atpg/report options:
//   --compact MODE         off|static|dynamic (default off; report: static)
//   --xfill MODE           random|0|1|adjacent (default random)
//   --width N              gate-level expansion bit width (default 4)
// report options:
//   --out FILE             report JSON path (default report.json, - stdout)
//   --html FILE            also render the self-contained HTML page
//   --dot-rtl FILE         datapath DOT with per-component coverage heatmap
//   --dot-cdfg FILE        CDFG DOT with per-operation coverage heatmap
// explain options (defaults to every undetected/aborted fault):
//   --fault N/P/S          one fault: node N, pin P (-1 = output), stuck-at S
//   --undetected           explain all undetected + aborted faults (default)
// sweep options (see docs/sweep.md for the manifest schema):
//   --out-dir DIR          results directory (default results/): per-job
//                          reports, journal.jsonl, index.json, sweep_stats
//   --threads N            job-level worker threads (default: pool width)
//   --resume               consult an existing journal: skip verified
//                          completed jobs, run only the remainder
//   --max-jobs N           stop cleanly after N jobs (kill/resume testing)
//   --baseline FILE        compare the final index.json against this
//                          checked-in baseline (timing-stripped); exit 1
//                          on any difference
//   --timeline FILE        export a Chrome trace_event job timeline (one
//                          track per pool worker slot, one span per job
//                          with stage sub-spans + cache annotations)
//   --history DIR          on completion, ingest this sweep into the
//                          persistent run-history store at DIR and echo
//                          its verdicts into sweep_stats.json
// history subcommands (DIR is the store directory; see docs/history.md):
//   trend                  every key's series across runs (--key SUBSTR to
//                          filter, --json for machine output)
//   diff [BASE [NEW]]      bench_diff two runs ("prev" vs "latest" by
//                          default; refs: latest|prev|ordinal|id prefix);
//                          exit 1 on regression
//   outliers               robust-MAD anomaly scan (--last N window,
//                          --json, --gate = exit 1 on gating outliers)
//   ingest FILE            add a sweep index.json or a schema-1 run report
//                          to the store
//   --html FILE            render the fleet dashboard (any subcommand, or
//                          alone)
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bist/bist_assign.h"
#include "campaign/manifest.h"
#include "campaign/sweep.h"
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
#include "observe/bench_diff.h"
#include "observe/history.h"
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
#include "observe/profile.h"
#include "observe/serve.h"
#include "util/httpd.h"
#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/trace.h"

/// Writes `text` to `path`, with "-" meaning stdout (defined below main's
/// helpers; declared here so commands can emit artifacts).
bool write_output(const std::string& path, const std::string& text);

namespace {

using namespace tsyn;

/// Human-readable report stream. Normally stdout; redirected to stderr when
/// --metrics - or --trace - claims stdout for machine-readable JSON.
FILE* g_report = stdout;

/// Set while --profile is active, so cmd_report can fold the top self-time
/// table into the run report.
observe::Profiler* g_profiler = nullptr;

/// Set while --serve is active (or the serve command runs), so the
/// crash-flush path can take the endpoint down with the process.
observe::ObservabilityServer* g_server = nullptr;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: tsyn_cli <synth|analyze|bist|atpg|report|explain|sweep"
               "|history|serve|list> <file.cdfg|bench:NAME|manifest.json"
               "|store-dir> [options]\n"
               "run with no arguments for the option list in the source "
               "header.\n");
  std::exit(2);
}

cdfg::Cdfg load_behavior(const std::string& spec) {
  if (spec.rfind("bench:", 0) == 0) {
    const std::string name = spec.substr(6);
    for (cdfg::Cdfg& g : cdfg::standard_benchmarks())
      if (g.name() == name) return std::move(g);
    usage(("unknown benchmark: " + name).c_str());
  }
  std::ifstream in(spec);
  // A missing/unreadable file is a runtime failure (exit 1), not a usage
  // error: the invocation was well-formed, the environment let it down.
  if (!in) throw std::runtime_error("cannot open " + spec);
  std::stringstream buf;
  buf << in.rdbuf();
  return cdfg::parse_cdfg(buf.str());
}

struct Args {
  std::string command;
  std::string behavior;
  int alu = 2;
  int mul = 2;
  int steps = 0;
  std::string scan = "none";
  bool loop_avoid = false;
  std::string verilog;
  std::string arch = "tfb";
  std::string trace;
  std::string metrics;
  /// Empty = per-command default: "off" for atpg, "static" for report
  /// (a report without compaction phases has nothing to waterfall).
  std::string compact;
  std::string xfill = "random";
  int width = 4;
  std::string out = "report.json";
  std::string html;
  std::string dot_rtl;
  std::string dot_cdfg;
  /// explain: one fault as "node/pin/sa" (empty = --undetected behavior).
  std::string fault;
  bool undetected = false;
  // Live telemetry.
  std::string heartbeat;       ///< JSONL stream path ("-" = stderr)
  int heartbeat_ms = 250;      ///< from the :MS suffix of --heartbeat
  std::string profile;         ///< collapsed-stack output path
  bool progress = false;       ///< single-line TTY progress view
  long watchdog_ms = 0;        ///< 0 = stall watchdog off
  // Observability endpoint (--serve, and the serve command's defaults).
  bool serve = false;
  std::string serve_addr = "127.0.0.1";
  int serve_port = 0;          ///< 0 = kernel-assigned ephemeral port
  // sweep.
  std::string out_dir = "results";
  int threads = 0;             ///< 0 = shared pool width
  bool resume = false;
  int max_jobs = 0;            ///< 0 = whole grid
  std::string baseline;        ///< index.json baseline to gate against
  std::string timeline;        ///< Chrome trace_event job timeline path
  std::string history;         ///< run-history store dir to ingest into
  // history command.
  std::vector<std::string> extras;  ///< positionals after DIR (subcommand...)
  std::string key_filter;      ///< --key: trend series substring filter
  int last_n = 0;              ///< --last: outlier cross-run window (0 = default)
  bool json_out = false;       ///< --json: machine output for trend/outliers
  bool gate = false;           ///< --gate: exit 1 on gating outliers
  bool no_time = false;        ///< --no-time: skip wall_ms in history diff
};

/// Strict numeric option parsing: the whole value must be an integer.
/// std::stoi alone would accept "4x" and abort the process (uncaught
/// std::invalid_argument) on "x" — both are usage errors, exit 2.
long int_arg(const std::string& opt, const std::string& v) {
  std::size_t used = 0;
  long n = 0;
  try {
    n = std::stol(v, &used);
  } catch (const std::exception&) {
    usage((opt + " expects an integer (got \"" + v + "\")").c_str());
  }
  if (used != v.size())
    usage((opt + " expects an integer (got \"" + v + "\")").c_str());
  return n;
}

/// Splits a --heartbeat value "PATH[:MS]" into path and interval. The
/// suffix is an interval only when nonempty and all digits, so plain
/// paths containing ':' stay intact.
void parse_heartbeat_value(const std::string& v, Args* a) {
  const std::size_t colon = v.rfind(':');
  if (colon != std::string::npos && colon + 1 < v.size()) {
    const std::string suffix = v.substr(colon + 1);
    if (std::all_of(suffix.begin(), suffix.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      a->heartbeat = v.substr(0, colon);
      a->heartbeat_ms = static_cast<int>(int_arg("--heartbeat :MS", suffix));
      if (a->heartbeat_ms < 1) usage("--heartbeat interval must be >= 1 ms");
      return;
    }
  }
  a->heartbeat = v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage();
  a.command = argv[1];
  if (a.command == "list") {
    // `list` takes nothing; trailing arguments used to be silently
    // ignored, masking typos like `tsyn_cli list --arch tfb`.
    if (argc > 2)
      usage(("list takes no arguments (got: " + std::string(argv[2]) + ")")
                .c_str());
    return a;
  }
  int first_opt = 3;
  if (a.command == "serve") {
    // The standalone daemon takes no behavior argument — just options.
    first_opt = 2;
    a.serve = true;
  } else {
    if (argc < 3) usage("missing behavior argument");
    a.behavior = argv[2];
  }
  for (int i = first_opt; i < argc; ++i) {
    std::string opt = argv[i];
    // `history` is the one command with trailing positionals (subcommand
    // plus its arguments); everything else treats bare words as typos.
    if (a.command == "history" && (opt.empty() || opt[0] != '-')) {
      a.extras.push_back(opt);
      continue;
    }
    // `--opt=value` is equivalent to `--opt value`.
    std::string inline_value;
    bool has_inline = false;
    if (const std::size_t eq = opt.find('='); eq != std::string::npos) {
      inline_value = opt.substr(eq + 1);
      opt = opt.substr(0, eq);
      has_inline = true;
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) usage((opt + " needs a value").c_str());
      return argv[++i];
    };
    if (opt == "--alu") a.alu = static_cast<int>(int_arg(opt, value()));
    else if (opt == "--mul") a.mul = static_cast<int>(int_arg(opt, value()));
    else if (opt == "--steps") a.steps = static_cast<int>(int_arg(opt, value()));
    else if (opt == "--scan") a.scan = value();
    else if (opt == "--loop-avoid") {
      if (has_inline) usage("--loop-avoid takes no value");
      a.loop_avoid = true;
    }
    else if (opt == "--verilog") a.verilog = value();
    else if (opt == "--arch") a.arch = value();
    else if (opt == "--trace") a.trace = value();
    else if (opt == "--metrics") a.metrics = value();
    else if (opt == "--compact") a.compact = value();
    else if (opt == "--xfill") a.xfill = value();
    else if (opt == "--width") a.width = static_cast<int>(int_arg(opt, value()));
    else if (opt == "--out") a.out = value();
    else if (opt == "--html") a.html = value();
    else if (opt == "--dot-rtl") a.dot_rtl = value();
    else if (opt == "--dot-cdfg") a.dot_cdfg = value();
    else if (opt == "--heartbeat") parse_heartbeat_value(value(), &a);
    else if (opt == "--profile") a.profile = value();
    else if (opt == "--progress") {
      if (has_inline) usage("--progress takes no value");
      a.progress = true;
    }
    else if (opt == "--watchdog") {
      a.watchdog_ms = int_arg(opt, value());
      if (a.watchdog_ms < 1) usage("--watchdog expects a window in ms");
    }
    else if (opt == "--serve") {
      // "[ADDR:]PORT". The port goes through the shared strict-int parse
      // (same exit-2 contract as every numeric flag); the address
      // through the same literal validation the server binds with.
      const std::string v = value();
      std::string addr = "127.0.0.1";
      std::string port_part = v;
      if (const std::size_t colon = v.rfind(':');
          colon != std::string::npos) {
        addr = v.substr(0, colon);
        port_part = v.substr(colon + 1);
      }
      const long port = int_arg("--serve [ADDR:]PORT", port_part);
      if (port < 0 || port > 65535)
        usage("--serve port must be in [0, 65535] (0 = ephemeral)");
      if (!util::parse_serve_spec(addr + ":" + std::to_string(port),
                                  &a.serve_addr, &a.serve_port))
        usage(("--serve: bad listen address \"" + addr +
               "\" (IPv4 literal expected)")
                  .c_str());
      a.serve = true;
    }
    else if (opt == "--fault") a.fault = value();
    else if (opt == "--out-dir") a.out_dir = value();
    else if (opt == "--threads") {
      a.threads = static_cast<int>(int_arg(opt, value()));
      if (a.threads < 0) usage("--threads must be >= 0");
    }
    else if (opt == "--resume") {
      if (has_inline) usage("--resume takes no value");
      a.resume = true;
    }
    else if (opt == "--max-jobs") {
      a.max_jobs = static_cast<int>(int_arg(opt, value()));
      if (a.max_jobs < 0) usage("--max-jobs must be >= 0");
    }
    else if (opt == "--baseline") a.baseline = value();
    else if (opt == "--timeline") a.timeline = value();
    else if (opt == "--history") a.history = value();
    else if (opt == "--key") a.key_filter = value();
    else if (opt == "--last") {
      a.last_n = static_cast<int>(int_arg(opt, value()));
      if (a.last_n < 1) usage("--last must be >= 1");
    }
    else if (opt == "--json") {
      if (has_inline) usage("--json takes no value");
      a.json_out = true;
    }
    else if (opt == "--gate") {
      if (has_inline) usage("--gate takes no value");
      a.gate = true;
    }
    else if (opt == "--no-time") {
      if (has_inline) usage("--no-time takes no value");
      a.no_time = true;
    }
    else if (opt == "--undetected") {
      if (has_inline) usage("--undetected takes no value");
      a.undetected = true;
    }
    else if (opt == "--log-level") {
      util::LogLevel level;
      if (!util::parse_log_level(value(), &level))
        usage("--log-level expects error|warn|info|debug");
      util::set_log_level(level);
    }
    else usage(("unknown option: " + opt).c_str());
  }
  return a;
}

std::vector<cdfg::VarId> select_scan(const cdfg::Cdfg& g,
                                     const std::string& mode) {
  if (mode == "none") return {};
  if (mode == "mfvs") return testability::select_scan_vars_mfvs(g);
  if (mode == "loopcut") return testability::select_scan_vars_loopcut(g);
  if (mode == "boundary") return testability::select_scan_vars_boundary(g);
  if (mode == "interior") return testability::select_scan_vars_interior(g);
  usage(("unknown scan mode: " + mode).c_str());
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
  std::fprintf(g_report, "S-graph   : %d self-loops, %d assignment loops, %d CDFG "
              "loops\n",
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

  if (!a.verilog.empty()) {
    const std::string v =
        rtl::emit_verilog(design.datapath, design.controller);
    if (a.verilog == "-") {
      std::fputs(v.c_str(), stdout);
    } else {
      std::ofstream out(a.verilog);
      out << v;
      std::fprintf(g_report, "verilog   : written to %s (%zu bytes)\n",
                  a.verilog.c_str(), v.size());
    }
  }
  return 0;
}

int cmd_analyze(const Args& a) {
  TSYN_SPAN("cli.analyze");
  const cdfg::Cdfg g = load_behavior(a.behavior);
  std::fprintf(g_report, "%s\n", g.to_string().c_str());
  const auto loops = cdfg::cdfg_loops(g);
  std::fprintf(g_report, "CDFG loops: %zu\n", loops.size());
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
  } else if (a.arch == "conventional") {
    binding = hls::make_binding(g, s);
    std::fprintf(g_report, "architecture: conventional binding\n");
  } else {
    usage(("unknown BIST architecture: " + a.arch).c_str());
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

int cmd_atpg(const Args& a) {
  TSYN_SPAN("cli.atpg");
  compaction::CompactionOptions copts;
  const std::string compact = a.compact.empty() ? "off" : a.compact;
  if (!compaction::parse_compact_mode(compact, &copts.mode))
    usage("--compact expects off|static|dynamic");
  if (!compaction::parse_xfill(a.xfill, &copts.xfill))
    usage("--xfill expects random|0|1|adjacent");
  if (a.width < 1) usage("--width must be >= 1");

  // Full-scan flow: synthesize, scan every register, expand to a
  // combinational netlist, then generate + compact the test set.
  const cdfg::Cdfg g = load_behavior(a.behavior);
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, a.alu},
                                  {cdfg::FuType::kMultiplier, a.mul}};
  opts.num_steps = a.steps;
  hls::Synthesis syn = hls::synthesize(g, opts);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions eo;
  eo.width_override = a.width;
  const gl::Netlist n = gl::expand_datapath(dp, eo).netlist;
  const std::vector<gl::Fault> faults = gl::enumerate_faults(n);

  const compaction::CompactedCampaign c =
      compaction::run_compacted_atpg(n, faults, copts);

  const std::size_t pis = n.primary_inputs().size();
  std::fprintf(g_report,
               "gatelevel : %d gates, %zu PIs (full scan, width %d), "
               "%zu faults\n",
               n.gate_count(), pis, a.width, faults.size());
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

/// The shared full-scan front half of `report` and `explain`: synthesize,
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

compaction::CompactionOptions parse_compaction(const Args& a) {
  compaction::CompactionOptions copts;
  const std::string compact = a.compact.empty() ? "static" : a.compact;
  if (!compaction::parse_compact_mode(compact, &copts.mode))
    usage("--compact expects off|static|dynamic");
  if (!compaction::parse_xfill(a.xfill, &copts.xfill))
    usage("--xfill expects random|0|1|adjacent");
  if (a.width < 1) usage("--width must be >= 1");
  return copts;
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
  const compaction::CompactionOptions copts = parse_compaction(a);
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
  if (g_profiler) {
    r.profile_samples = g_profiler->samples();
    r.profile_top = g_profiler->top_self(15);
  }
  // Metrics last, so the attribution join's gauge/histogram are included.
  r.metrics_json = util::metrics().to_json();

  if (!write_output(a.out, observe::report_to_json(r) + "\n")) {
    std::fprintf(stderr, "error: cannot write report to %s\n", a.out.c_str());
    return 1;
  }
  if (a.out != "-")
    std::fprintf(g_report, "report    : written to %s (%zu journeys, %zu "
                 "waterfalls)\n",
                 a.out.c_str(), r.ledger.journeys.size(),
                 r.ledger.waterfalls.size());
  if (!a.html.empty()) {
    if (!write_output(a.html, observe::report_to_html(r))) {
      std::fprintf(stderr, "error: cannot write HTML report to %s\n",
                   a.html.c_str());
      return 1;
    }
    if (a.html != "-")
      std::fprintf(g_report, "html      : written to %s\n", a.html.c_str());
  }
  if (!a.dot_rtl.empty()) {
    rtl::DatapathHeat heat;
    heat.reg = observe::register_heat(r.provenance, r.attribution,
                                      d.dp.num_regs());
    heat.fu = observe::fu_heat(r.provenance, r.attribution, d.dp.num_fus());
    if (!write_output(a.dot_rtl, rtl::datapath_to_dot(d.dp, &heat))) {
      std::fprintf(stderr, "error: cannot write %s\n", a.dot_rtl.c_str());
      return 1;
    }
    if (a.dot_rtl != "-")
      std::fprintf(g_report, "dot-rtl   : heatmap written to %s\n",
                   a.dot_rtl.c_str());
  }
  if (!a.dot_cdfg.empty()) {
    const std::vector<double> heat =
        observe::op_heat(r.provenance, r.attribution, d.g.num_ops());
    if (!write_output(a.dot_cdfg, cdfg::to_dot(d.g, {}, &heat))) {
      std::fprintf(stderr, "error: cannot write %s\n", a.dot_cdfg.c_str());
      return 1;
    }
    if (a.dot_cdfg != "-")
      std::fprintf(g_report, "dot-cdfg  : heatmap written to %s\n",
                   a.dot_cdfg.c_str());
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
               j.status.c_str(), j.targets,
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
  const compaction::CompactionOptions copts = parse_compaction(a);
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
      if (j.status == "undetected" || j.status == "aborted")
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

}  // namespace

/// Best-effort creation of `path`'s missing parent directories, shared by
/// every file-writing output flag (--trace, --timeline, ...). The open
/// that follows reports the real failure if this did not help.
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
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

/// Refuses two output flags aimed at one path — the second write would
/// silently win. Prints the offending pair and returns false. Shared by
/// every command's output-flag set (sweep's --timeline/--history and
/// history's --html included).
bool reject_output_collisions(
    const std::vector<std::pair<const char*, const std::string*>>& outs) {
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].second->empty()) continue;
    for (std::size_t j = i + 1; j < outs.size(); ++j) {
      if (*outs[i].second != *outs[j].second) continue;
      std::fprintf(stderr,
                   "error: %s and %s point at the same output (%s); give "
                   "them distinct paths\n",
                   outs[i].first, outs[j].first, outs[i].second->c_str());
      return false;
    }
  }
  return true;
}

int cmd_sweep(const Args& a) {
  std::ifstream in(a.behavior);
  if (!in) throw std::runtime_error("cannot open manifest " + a.behavior);
  std::stringstream buf;
  buf << in.rdbuf();
  const campaign::Manifest m = campaign::parse_manifest(buf.str());

  campaign::SweepOptions opts;
  opts.results_dir = a.out_dir;
  opts.threads = a.threads;
  opts.resume = a.resume;
  opts.max_jobs = a.max_jobs;
  opts.timeline_path = a.timeline;
  opts.history_dir = a.history;
  if (!a.timeline.empty()) ensure_parent_dirs(a.timeline);
  if (!a.history.empty()) ensure_parent_dirs(a.history + "/store.jsonl");
  const campaign::SweepSummary s = campaign::run_sweep(m, opts);

  std::fprintf(g_report,
               "sweep     : %lld jobs (%lld ran, %lld from journal, "
               "%lld failed) in %.1f ms\n",
               static_cast<long long>(s.total()),
               static_cast<long long>(s.ran),
               static_cast<long long>(s.journal_hits),
               static_cast<long long>(s.failed), s.wall_ms);
  std::fprintf(g_report,
               "cache     : parse %lld/%lld, synth %lld/%lld, expand "
               "%lld/%lld (hit/miss)\n",
               static_cast<long long>(s.cache.parse_hits),
               static_cast<long long>(s.cache.parse_misses),
               static_cast<long long>(s.cache.synth_hits),
               static_cast<long long>(s.cache.synth_misses),
               static_cast<long long>(s.cache.expand_hits),
               static_cast<long long>(s.cache.expand_misses));
  int shown = 0;
  for (const campaign::JobResult& r : s.jobs) {
    if (r.status != "failed") continue;
    if (++shown > 5) {
      std::fprintf(g_report, "  ... and %lld more failed jobs\n",
                   static_cast<long long>(s.failed - 5));
      break;
    }
    std::fprintf(g_report, "  failed  : %s: %s\n", r.spec.id.c_str(),
                 r.error.c_str());
  }
  if (!a.timeline.empty())
    std::fprintf(g_report, "timeline  : %s\n", a.timeline.c_str());
  if (!s.complete) {
    std::fprintf(g_report,
                 "index     : not written (--max-jobs stopped the run; "
                 "finish with --resume)\n");
    return 0;  // an early stop was requested, not a failure
  }
  std::fprintf(g_report, "index     : %s/index.json\n", a.out_dir.c_str());
  if (!s.history_run_id.empty())
    std::fprintf(g_report, "history   : run %.12s %s -> %s (%lld run(s))\n",
                 s.history_run_id.c_str(),
                 s.history_added ? "ingested" : "already present",
                 a.history.c_str(),
                 static_cast<long long>(s.history_runs_total));

  if (!a.baseline.empty()) {
    std::ifstream bin(a.baseline);
    if (!bin) throw std::runtime_error("cannot open baseline " + a.baseline);
    std::stringstream bbuf;
    bbuf << bin.rdbuf();
    const std::string got = campaign::strip_timing(campaign::index_to_json(s));
    const std::string want = campaign::strip_timing(bbuf.str());
    if (got != want) {
      // Point at the first diverging line: with deterministic reports any
      // divergence is a real behavior change, not noise.
      std::istringstream ga(got), wa(want);
      std::string gl, wl;
      int line = 1;
      while (std::getline(ga, gl) && std::getline(wa, wl) && gl == wl) ++line;
      std::fprintf(stderr,
                   "error: index.json diverges from baseline %s at line %d\n"
                   "  baseline: %s\n  got     : %s\n",
                   a.baseline.c_str(), line, wl.c_str(), gl.c_str());
      return 1;
    }
    std::fprintf(g_report, "baseline  : match (%s, timing stripped)\n",
                 a.baseline.c_str());
  }
  return s.failed > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// history
// ---------------------------------------------------------------------------

namespace cli_history {

/// Turns a sweep index.json (schema 2) or a schema-1 single-job run report
/// into a HistoryRun, so `history ingest` accepts both artifact kinds the
/// pipeline produces.
observe::HistoryRun run_from_artifact(const util::Json& doc,
                                      const std::string& source) {
  if (!doc.is_object())
    throw std::runtime_error("ingest: " + source + " is not a JSON object");
  observe::HistoryRun r;
  r.source = source;
  const double schema = doc.number_or("schema", -1);
  const util::Json* jobs = doc.find("jobs");
  auto str_or = [](const util::Json& o, const char* key,
                   const std::string& fallback) {
    const util::Json* v = o.find(key);
    return v && v->is_string() ? v->str : fallback;
  };
  if (schema == 2 && jobs && jobs->is_array()) {
    r.manifest = str_or(doc, "manifest", "index");
    for (const util::Json& row : jobs->arr) {
      if (!row.is_object()) continue;
      observe::HistoryEntry e;
      e.job = str_or(row, "case", "");
      if (e.job.empty()) continue;
      e.design = str_or(row, "design", "");
      e.config = str_or(row, "config", "");
      e.scan = str_or(row, "scan", "");
      e.width = static_cast<int>(row.number_or("width", 0));
      e.seed = static_cast<std::uint64_t>(row.number_or("job_seed", 0));
      e.status = str_or(row, "status", "ok");
      e.error = str_or(row, "error", "");
      e.gates = static_cast<std::int64_t>(row.number_or("gates", 0));
      e.faults = static_cast<std::int64_t>(row.number_or("faults", 0));
      e.patterns = static_cast<std::int64_t>(row.number_or("patterns", 0));
      e.cubes = static_cast<std::int64_t>(row.number_or("cubes", 0));
      e.coverage = row.number_or("coverage", 0);
      e.efficiency = row.number_or("efficiency", 0);
      e.wall_ms = row.number_or("wall_ms", 0);
      r.entries.push_back(std::move(e));
    }
    if (r.entries.empty())
      throw std::runtime_error("ingest: " + source + " has no usable jobs");
    return r;
  }
  if (schema == 1) {
    // Schema-1 run report: one job keyed by its title.
    r.manifest = "report";
    observe::HistoryEntry e;
    e.job = str_or(doc, "title", source);
    e.design = str_or(doc, "behavior", "");
    e.width = static_cast<int>(doc.number_or("width", 0));
    e.status = str_or(doc, "status", "ok");
    e.error = str_or(doc, "error", "");
    e.gates = static_cast<std::int64_t>(doc.number_or("gates", 0));
    e.faults = static_cast<std::int64_t>(doc.number_or("faults", 0));
    e.patterns = static_cast<std::int64_t>(doc.number_or("patterns", 0));
    e.cubes = static_cast<std::int64_t>(doc.number_or("cubes", 0));
    e.coverage = doc.number_or("fault_coverage", 0);
    e.efficiency = doc.number_or("fault_efficiency", 0);
    r.entries.push_back(std::move(e));
    return r;
  }
  throw std::runtime_error(
      "ingest: " + source +
      " is neither a sweep index.json (schema 2) nor a run report (schema 1)");
}

int cmd_trend(const observe::History& h, const Args& a) {
  const std::vector<observe::TrendSeries> trend =
      observe::history_trend(h, a.key_filter);
  if (a.json_out) {
    std::string out = "[";
    bool first_s = true;
    for (const observe::TrendSeries& s : trend) {
      out += first_s ? "\n  " : ",\n  ";
      first_s = false;
      out += "{\"job\": \"" + s.job + "\", \"points\": [";
      for (std::size_t i = 0; i < s.points.size(); ++i) {
        const observe::TrendPoint& p = s.points[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"run\": \"%.12s\", \"status\": \"%s\", "
                      "\"coverage\": %.17g, \"wall_ms\": %.17g, "
                      "\"patterns\": %lld}",
                      i ? ", " : "", p.run_id.c_str(), p.status.c_str(),
                      p.coverage, p.wall_ms,
                      static_cast<long long>(p.patterns));
        out += buf;
      }
      out += "]}";
    }
    out += "\n]\n";
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  for (const observe::TrendSeries& s : trend) {
    const observe::TrendPoint& f = s.points.front();
    const observe::TrendPoint& l = s.points.back();
    std::fprintf(g_report,
                 "%-28s %2zu run(s)  coverage %.4f -> %.4f (%+.4f)  "
                 "wall_ms %.1f -> %.1f  patterns %lld -> %lld%s\n",
                 s.job.c_str(), s.points.size(), f.coverage, l.coverage,
                 l.coverage - f.coverage, f.wall_ms, l.wall_ms,
                 static_cast<long long>(f.patterns),
                 static_cast<long long>(l.patterns),
                 l.status == "failed" ? "  [FAILED]" : "");
  }
  std::fprintf(g_report, "trend     : %zu key(s) over %zu run(s)\n",
               trend.size(), h.runs.size());
  return 0;
}

int cmd_diff(const observe::History& h, const Args& a) {
  const std::string base_ref = a.extras.size() > 1 ? a.extras[1] : "prev";
  const std::string new_ref = a.extras.size() > 2 ? a.extras[2] : "latest";
  std::string err;
  const observe::HistoryRun* base = observe::history_resolve(h, base_ref, &err);
  if (!base) throw std::runtime_error("diff: " + err);
  const observe::HistoryRun* fresh = observe::history_resolve(h, new_ref, &err);
  if (!fresh) throw std::runtime_error("diff: " + err);

  observe::BenchDiffOptions opts;
  opts.check_time = !a.no_time;
  const util::Json b = util::Json::parse(observe::history_run_to_bench_json(*base));
  const util::Json f =
      util::Json::parse(observe::history_run_to_bench_json(*fresh));
  const observe::BenchDiffResult res = observe::diff_bench_json(b, f, opts);
  if (!res.schema_ok) {
    std::fprintf(stderr, "history diff: %s\n", res.schema_error.c_str());
    return 2;
  }
  const std::string text = observe::diff_result_to_text(
      res, /*quiet=*/false,
      base->run_id.substr(0, 12) + " vs " + fresh->run_id.substr(0, 12));
  std::fputs(text.c_str(), res.regressions.empty() ? stdout : stderr);
  return res.regressions.empty() ? 0 : 1;
}

int cmd_outliers(const observe::History& h, const Args& a) {
  observe::OutlierOptions opts;
  if (a.last_n > 0) opts.last_n = a.last_n;
  const std::vector<observe::HistoryOutlier> found =
      observe::history_outliers(h, opts);
  std::int64_t gating = 0;
  for (const observe::HistoryOutlier& o : found)
    if (o.gating) ++gating;
  if (a.json_out) {
    std::fputs((observe::outliers_to_json(found) + "\n").c_str(), stdout);
  } else {
    for (const observe::HistoryOutlier& o : found)
      std::fprintf(g_report,
                   "%s %-28s %-9s %-6s run %.12s  value %g vs median %g "
                   "(z=%.1f)\n",
                   o.gating ? "FAIL" : "note", o.job.c_str(),
                   o.metric.c_str(), o.scope.c_str(), o.run_id.c_str(),
                   o.value, o.median, o.z);
    std::fprintf(g_report,
                 "outliers  : %zu flagged (%lld gating) over %zu run(s)\n",
                 found.size(), static_cast<long long>(gating), h.runs.size());
  }
  return a.gate && gating > 0 ? 1 : 0;
}

}  // namespace cli_history

/// `tsyn_cli history DIR [trend|diff|outliers|ingest] ...` — query (or feed)
/// the persistent run-history store. --html renders the fleet dashboard
/// alongside (or instead of) any subcommand.
int cmd_history(const Args& a) {
  const std::string& dir = a.behavior;
  const std::string sub = a.extras.empty() ? "" : a.extras[0];

  if (sub == "ingest") {
    if (a.extras.size() < 2) usage("history ingest needs a FILE argument");
    int added = 0;
    for (std::size_t i = 1; i < a.extras.size(); ++i) {
      std::ifstream in(a.extras[i]);
      if (!in) throw std::runtime_error("cannot open " + a.extras[i]);
      std::stringstream buf;
      buf << in.rdbuf();
      const observe::HistoryRun run = cli_history::run_from_artifact(
          util::Json::parse(buf.str()), a.extras[i]);
      const observe::IngestResult res = observe::history_ingest(dir, run);
      added += res.added ? 1 : 0;
      std::fprintf(g_report, "ingest    : %s -> run %.12s %s (%lld entries)\n",
                   a.extras[i].c_str(), res.run_id.c_str(),
                   res.added ? "added" : "already present",
                   static_cast<long long>(res.entries));
    }
    (void)added;
    return 0;
  }

  const observe::History h = observe::history_load(dir);
  if (h.runs.empty()) throw std::runtime_error("history store " + dir +
                                               " holds no complete runs");
  int rc = 0;
  if (sub == "trend") rc = cli_history::cmd_trend(h, a);
  else if (sub == "diff") rc = cli_history::cmd_diff(h, a);
  else if (sub == "outliers") rc = cli_history::cmd_outliers(h, a);
  else if (sub.empty()) {
    std::size_t entries = 0;
    for (const observe::HistoryRun& r : h.runs) entries += r.entries.size();
    std::fprintf(g_report, "history   : %zu run(s), %zu entries in %s\n",
                 h.runs.size(), entries, dir.c_str());
  } else {
    usage(("unknown history subcommand: " + sub +
           " (expected trend|diff|outliers|ingest)").c_str());
  }

  if (!a.html.empty()) {
    if (!write_output(a.html, observe::history_to_html(h))) {
      std::fprintf(stderr, "error: cannot write dashboard to %s\n",
                   a.html.c_str());
      return 1;
    }
    if (a.html != "-")
      std::fprintf(g_report, "html      : dashboard written to %s\n",
                   a.html.c_str());
  }
  return rc;
}

/// The standalone daemon (`tsyn_cli serve`): the observability endpoint
/// with nothing attached, the `tsyn_serve` skeleton from the ROADMAP.
/// main() already started the server (g_server); this just parks until a
/// client asks it to leave via GET /quitz or a signal takes the process
/// down (the crash-flush path stops the server either way).
int cmd_serve(const Args&) {
  if (!g_server) return 1;  // unreachable: main() starts it or exits
  std::fprintf(g_report, "serve     : GET /quitz (or SIGINT/SIGTERM) stops\n");
  g_server->wait_for_quit();
  return 0;
}

int run_command(const Args& a) {
  if (a.command == "synth") { tsyn::util::telemetry_set_phase("synth"); return cmd_synth(a); }
  if (a.command == "analyze") { tsyn::util::telemetry_set_phase("analyze"); return cmd_analyze(a); }
  if (a.command == "bist") { tsyn::util::telemetry_set_phase("bist"); return cmd_bist(a); }
  if (a.command == "atpg") { tsyn::util::telemetry_set_phase("atpg"); return cmd_atpg(a); }
  if (a.command == "report") { tsyn::util::telemetry_set_phase("report"); return cmd_report(a); }
  if (a.command == "explain") { tsyn::util::telemetry_set_phase("explain"); return cmd_explain(a); }
  if (a.command == "sweep") { tsyn::util::telemetry_set_phase("sweep"); return cmd_sweep(a); }
  if (a.command == "history") { tsyn::util::telemetry_set_phase("history"); return cmd_history(a); }
  if (a.command == "serve") { tsyn::util::telemetry_set_phase("serve"); return cmd_serve(a); }
  usage(("unknown command: " + a.command).c_str());
}

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.command == "list") {
    for (const cdfg::Cdfg& g : cdfg::standard_benchmarks())
      std::fprintf(g_report, "bench:%-8s %3d ops, %2zu states, %zu CDFG loops\n",
                  g.name().c_str(), g.num_ops(), g.states().size(),
                  cdfg::cdfg_loops(g).size());
    return 0;
  }
  // Two machine-readable outputs aimed at one path would silently
  // clobber each other (the second write wins); refuse up front, across
  // every output flag uniformly — sweep's --timeline/--history included.
  // "-" is also one path: a stream would interleave two documents.
  {
    std::vector<std::pair<const char*, const std::string*>> outs = {
        {"--trace", &a.trace},
        {"--metrics", &a.metrics},
        {"--heartbeat", &a.heartbeat},
        {"--profile", &a.profile},
    };
    if (a.command == "synth") outs.push_back({"--verilog", &a.verilog});
    if (a.command == "report") {
      outs.push_back({"--out", &a.out});
      outs.push_back({"--html", &a.html});
      outs.push_back({"--dot-rtl", &a.dot_rtl});
      outs.push_back({"--dot-cdfg", &a.dot_cdfg});
    }
    if (a.command == "sweep") {
      outs.push_back({"--timeline", &a.timeline});
      outs.push_back({"--history", &a.history});
    }
    if (a.command == "history") outs.push_back({"--html", &a.html});
    if (!reject_output_collisions(outs)) return 2;
  }
  // '-' outputs claim stdout; the human report yields to stderr so the
  // stream a consumer pipes stays pure JSON.
  if (a.trace == "-" || a.metrics == "-" || a.profile == "-")
    g_report = stderr;
  if (!a.trace.empty()) util::trace_enable();

  // Live telemetry: heartbeat stream, sampling profiler, TTY progress,
  // stall watchdog — all driven by one background sampler thread. The
  // profiler has static storage so the crash-flush atexit pass (which runs
  // after main's locals are gone) can still serialize it.
  static observe::Profiler profiler;
  const bool want_telemetry = !a.heartbeat.empty() || !a.profile.empty() ||
                              a.progress || a.watchdog_ms > 0;
  if (want_telemetry) {
    util::TelemetryOptions topts;
    topts.heartbeat_path = a.heartbeat;
    topts.interval_ms = a.heartbeat_ms;
    topts.watchdog_ms = a.watchdog_ms;
    topts.tty_progress = a.progress;
    if (!a.profile.empty()) {
      util::trace_stacks_enable();
      topts.sampler = [] { g_profiler->sample(); };
      g_profiler = &profiler;
    }
    if (a.watchdog_ms > 0) util::trace_stacks_enable();  // stall stacks
    if (!util::telemetry_start(topts)) {
      std::fprintf(stderr, "error: cannot open heartbeat stream %s\n",
                   a.heartbeat.c_str());
      return 1;
    }
  }
  // Live observability endpoint: started before the workload so the very
  // first pattern is already scrapeable, bound port announced on stderr
  // ("serving on ADDR:PORT") so callers of --serve 0 can find it.
  static observe::ObservabilityServer server;
  if (a.serve) {
    observe::ServeOptions sopts;
    sopts.addr = a.serve_addr;
    sopts.port = a.serve_port;
    sopts.command = a.command;
    sopts.allow_quit = a.command == "serve";  // attached runs end with the run
    sopts.jobs_extra = [] { return campaign::sweep_live_json(); };
    std::string err;
    if (!server.start(sopts, &err)) {
      std::fprintf(stderr, "error: cannot start observability server: %s\n",
                   err.c_str());
      if (util::telemetry_active()) util::telemetry_stop();
      return 1;
    }
    g_server = &server;
    std::fprintf(stderr, "serving on %s:%d\n", server.address().c_str(),
                 server.port());
    std::fflush(stderr);
  }
  // Make --trace/--metrics/--profile artifacts survive a crash, a watchdog
  // abort, or an operator Ctrl-C: best-effort flush of whatever was
  // collected so far — and take the endpoint's socket down with the
  // process. The normal shutdown path below disarms this.
  if (!a.trace.empty() || !a.metrics.empty() || !a.profile.empty() ||
      g_server) {
    const std::string trace_path = a.trace, metrics_path = a.metrics,
                      profile_path = a.profile;
    util::install_crash_flush([trace_path, metrics_path, profile_path] {
      if (!trace_path.empty()) write_output(trace_path, util::trace_to_json());
      if (!metrics_path.empty())
        write_output(metrics_path, util::metrics().to_json() + "\n");
      if (!profile_path.empty() && g_profiler)
        write_output(profile_path, g_profiler->collapsed());
      if (g_server) g_server->stop();
    });
  }

  // Uniform exit codes: every runtime failure — unreadable input, engine
  // error, bad manifest — surfaces as one stderr line and exit 1. Usage
  // errors exited 2 in parse_args; telemetry artifacts below still flush.
  int rc = 0;
  try {
    rc = run_command(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (util::telemetry_active()) util::telemetry_stop();
  if (!a.profile.empty()) {
    if (write_output(a.profile, profiler.collapsed())) {
      if (a.profile != "-")
        std::fprintf(g_report, "profile   : %ld stack samples -> %s\n",
                     static_cast<long>(profiler.samples()), a.profile.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write profile to %s\n",
                   a.profile.c_str());
      return 1;
    }
  }
  if (!a.trace.empty()) {
    if (write_output(a.trace, util::trace_to_json())) {
      if (a.trace != "-")
        std::fprintf(g_report, "trace     : %zu spans -> %s\n",
                     util::trace_span_count(), a.trace.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   a.trace.c_str());
      return 1;
    }
  }
  if (!a.metrics.empty()) {
    if (write_output(a.metrics, util::metrics().to_json() + "\n")) {
      if (a.metrics != "-")
        std::fprintf(g_report, "metrics   : written to %s\n",
                     a.metrics.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   a.metrics.c_str());
      return 1;
    }
  }
  // The endpoint outlives the artifact writes above on purpose: a scraper
  // can watch the registry through the very last flush. Stop is part of
  // the command's own lifetime — no lingering socket after exit 0.
  if (g_server) {
    const long long served = g_server->requests();
    g_server->stop();
    std::fprintf(g_report, "serve     : %lld request(s) served on %s:%d\n",
                 served, a.serve_addr.c_str(), server.port());
  }
  util::disarm_crash_flush();
  return rc;
}
