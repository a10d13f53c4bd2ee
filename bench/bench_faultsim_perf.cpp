// PERF-FAULTSIM — performance trajectory of the fault-simulation engine.
//
// Three comparisons, all on the generated benchmark suite:
//  (1) PPSFP: serial (num_threads=1) vs sharded (one worker per hardware
//      thread) run_block over full-scan expansions, up to the largest
//      generated netlist;
//  (2) sequential: the Netlist-walking full-resimulation oracle vs the
//      engine's fault-slot-parallel SimGraph simulation (serial and
//      sharded) on the EXP-SEQATPG circuits and non-scan datapath
//      expansions;
//  (3) soa: the compiled SoA core's wide-lane grading (64 vs 512 pattern
//      lanes, the two widths the engine supports) on the detection-matrix
//      and dropping workloads, plus the one-time lowering cost and thread
//      scaling.
//
// Results go to stdout and to BENCH_faultsim.json (schema documented in
// docs/faultsim.md) so the perf trajectory is tracked from PR to PR.
#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cdfg/generator.h"
#include "gatelevel/bistgen.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/simgraph.h"
#include "gatelevel/widebits.h"
#include "observe/ledger.h"
#include "util/telemetry.h"

namespace tsyn {
namespace {

/// With one hardware thread, FaultSimOptions{0} resolves to one worker and
/// takes the identical inline path as FaultSimOptions{1} — timing the two
/// separately would only record scheduler noise, so the bench skips the
/// parallel measurements entirely and writes null markers to the JSON
/// (bench_diff treats a skipped measurement as a note, not a regression).
/// Internally "skipped" is a negative sentinel.
bool single_core() { return gl::FaultSimOptions{}.resolved_threads() <= 1; }

constexpr double kSkipped = -1.0;

/// Result mismatches found so far. Any one fails the run (exit 1) once the
/// tables and BENCH_faultsim.json are written: timing a wrong result is not
/// a measurement.
int g_mismatches = 0;

void report_mismatch(const std::string& what) {
  ++g_mismatches;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

/// JSON image of a measurement: "null" when skipped, else fixed-point.
std::string num_or_null(double v, int digits) {
  if (v < 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Table image of a measurement: "-" when skipped.
std::string fmt_or_dash(double v, int digits) {
  return v < 0 ? "-" : util::fmt(v, digits);
}

double time_ms(const std::function<void()>& fn, int reps = 1) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// MEDIAN-of-reps timing for the soa section: the SoA rows feed speedup
/// ratios where one outlier sample in either direction distorts the
/// quotient, and the median is robust against host slow phases on both
/// sides (best-of is robust against slowdowns only).
double median_ms(const std::function<void()>& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) samples.push_back(time_ms(fn));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Full-scan gate-level expansion of a behavior at the standard allocation.
gl::Netlist scan_netlist(const cdfg::Cdfg& g, int width) {
  const hls::Synthesis syn = bench::synthesize_standard(g);
  rtl::Datapath dp = syn.rtl.datapath;
  for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(dp, x).netlist;
}

/// Non-scan (sequential) expansion, the sequential engine's workload.
gl::Netlist seq_netlist(const cdfg::Cdfg& g, int width) {
  const hls::Synthesis syn = bench::synthesize_standard(g);
  gl::ExpandOptions x;
  x.width_override = width;
  return gl::expand_datapath(syn.rtl.datapath, x).netlist;
}

/// Ring register circuit from EXP-SEQATPG (long S-graph cycle).
gl::Netlist ring_circuit(int length) {
  gl::Netlist n;
  const int load = n.add_input("load");
  const int din = n.add_input("din");
  std::vector<int> regs;
  for (int i = 0; i < length; ++i)
    regs.push_back(n.add_dff(-1, "r" + std::to_string(i)));
  const int inv = n.add_gate(gl::GateType::kNot, {regs[length - 1]});
  const int d0 = n.add_gate(gl::GateType::kMux, {load, inv, din});
  n.set_dff_input(regs[0], d0);
  for (int i = 1; i < length; ++i) n.set_dff_input(regs[i], regs[i - 1]);
  n.mark_output(regs[0]);
  return n;
}

/// Register pipeline from EXP-SEQATPG (pure sequential depth).
gl::Netlist pipeline_circuit(int depth) {
  gl::Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int x = n.add_gate(gl::GateType::kXor, {a, b});
  int prev = x;
  for (int i = 0; i < depth; ++i) {
    const int q = n.add_dff(-1, "d" + std::to_string(i));
    n.set_dff_input(q, prev);
    prev = q;
  }
  n.mark_output(prev);
  return n;
}

struct PpsfpRow {
  std::string circuit;
  int gates = 0;
  std::size_t faults = 0;
  int patterns = 0;
  double serial_ms = 0, parallel_ms = kSkipped, coverage = 0;
  /// Median of the paired serial/parallel ratios and their IQR.
  double speedup = kSkipped, speedup_iqr = kSkipped;
};

/// The shape check's PPSFP verdict: >= 3x on >= 4 hardware threads, stated
/// only when the speedup's distance to 3x exceeds its IQR.
std::string ppsfp_verdict(const PpsfpRow& r, int hw) {
  if (r.speedup < 0 || hw < 4) return "-";
  if (r.speedup - 3.0 > r.speedup_iqr) return "meets";
  if (3.0 - r.speedup > r.speedup_iqr) return "misses";
  return "within IQR";
}

struct SeqRow {
  std::string circuit;
  std::size_t faults = 0;
  int frames = 0;
  double full_resim_ms = 0, engine_serial_ms = 0, engine_parallel_ms = kSkipped;
  long detected = 0;
  double speedup_algorithmic() const {
    return engine_serial_ms > 0 ? full_resim_ms / engine_serial_ms : kSkipped;
  }
  double speedup_total() const {
    return engine_parallel_ms > 0 ? full_resim_ms / engine_parallel_ms
                                  : kSkipped;
  }
};

PpsfpRow ppsfp_case(const std::string& name, const gl::Netlist& n,
                    int blocks_count, int reps) {
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), blocks_count, 0x5EED);
  PpsfpRow row;
  row.circuit = name;
  row.gates = n.gate_count();
  row.faults = faults.size();
  row.patterns = blocks_count * 64;

  double cov_serial = 0, cov_parallel = 0;
  const auto pass = [&](int threads, double* cov) {
    return time_ms([&] {
      *cov = gl::fault_coverage(n, blocks, faults, nullptr,
                                gl::FaultSimOptions{threads});
    });
  };
  if (single_core()) {
    row.serial_ms = time_ms([&] { pass(1, &cov_serial); }, reps);
    pass(0, &cov_parallel);
  } else {
    // Adjacent serial/sharded pairs (the paired overhead protocol), so a
    // slow phase of the host hits both halves of each speedup ratio.
    const bench::PairedTiming t = bench::paired_overhead(
        [&] { return pass(1, &cov_serial); },
        [&] { return pass(0, &cov_parallel); }, reps, 1);
    row.serial_ms = t.off_ms;
    row.parallel_ms = t.on_ms;
    row.speedup = t.ratio;
    row.speedup_iqr = t.ratio_iqr;
  }
  if (cov_serial != cov_parallel)
    report_mismatch(name + " serial/parallel coverage");
  row.coverage = cov_serial;
  return row;
}

/// Aggregate row over a set of tiny circuits: each engine runs the whole
/// set reps_inner times per timing sample so the sub-millisecond campaigns
/// are measurable. Reported times are per one pass over the set.
SeqRow seq_suite_case(const std::string& name,
                      const std::vector<gl::Netlist>& circs,
                      const std::vector<int>& nframes, int reps_inner,
                      int reps) {
  std::vector<std::vector<gl::Fault>> faults;
  std::vector<std::vector<std::vector<gl::Bits>>> frames;
  SeqRow row;
  row.circuit = name;
  for (std::size_t c = 0; c < circs.size(); ++c) {
    faults.push_back(gl::enumerate_faults(circs[c]));
    frames.push_back(gl::lfsr_pattern_blocks(
        static_cast<int>(circs[c].primary_inputs().size()), nframes[c],
        0xFACE));
    row.faults += faults.back().size();
    row.frames += nframes[c];
  }
  std::vector<std::vector<bool>> base(circs.size());
  std::vector<bool> got;
  bool mismatch = false;
  for (std::size_t c = 0; c < circs.size(); ++c) {
    base[c] =
        gl::sequential_fault_sim_full_resim(circs[c], frames[c], faults[c]);
    got = gl::sequential_fault_sim(circs[c], frames[c], faults[c],
                                   gl::FaultSimOptions{1});
    mismatch = mismatch || got != base[c];
  }
  // Interleave the two engines' timing samples so slow phases of the host
  // machine hit both rather than biasing whichever ran second.
  double best_full = 1e300, best_engine = 1e300;
  for (int t = 0; t < reps; ++t) {
    best_full = std::min(
        best_full, time_ms([&] {
          for (int r = 0; r < reps_inner; ++r)
            for (std::size_t c = 0; c < circs.size(); ++c)
              got = gl::sequential_fault_sim_full_resim(circs[c], frames[c],
                                                        faults[c]);
        }));
    best_engine = std::min(
        best_engine, time_ms([&] {
          for (int r = 0; r < reps_inner; ++r)
            for (std::size_t c = 0; c < circs.size(); ++c)
              got = gl::sequential_fault_sim(circs[c], frames[c], faults[c],
                                             gl::FaultSimOptions{1});
        }));
  }
  row.full_resim_ms = best_full / reps_inner;
  row.engine_serial_ms = best_engine / reps_inner;
  for (std::size_t c = 0; c < circs.size(); ++c) {
    got = gl::sequential_fault_sim(circs[c], frames[c], faults[c],
                                   gl::FaultSimOptions{0});
    mismatch = mismatch || got != base[c];
  }
  row.engine_parallel_ms =
      single_core()
          ? kSkipped
          : time_ms(
                [&] {
                  for (int r = 0; r < reps_inner; ++r)
                    for (std::size_t c = 0; c < circs.size(); ++c)
                      got = gl::sequential_fault_sim(circs[c], frames[c],
                                                     faults[c],
                                                     gl::FaultSimOptions{0});
                },
                reps) /
                reps_inner;
  if (mismatch) report_mismatch(name + " sequential result vs full resim");
  for (const auto& b : base)
    for (bool d : b) row.detected += d;
  return row;
}

SeqRow seq_case(const std::string& name, const gl::Netlist& n,
                int frames_count, int reps) {
  const auto faults = gl::enumerate_faults(n);
  const auto frames = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), frames_count, 0xFACE);
  SeqRow row;
  row.circuit = name;
  row.faults = faults.size();
  row.frames = frames_count;

  std::vector<bool> base, engine_serial, engine_parallel;
  // Interleaved sampling — see seq_suite_case.
  double best_full = 1e300, best_engine = 1e300;
  for (int t = 0; t < reps; ++t) {
    best_full = std::min(best_full, time_ms([&] {
      base = gl::sequential_fault_sim_full_resim(n, frames, faults);
    }));
    best_engine = std::min(best_engine, time_ms([&] {
      engine_serial =
          gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{1});
    }));
  }
  row.full_resim_ms = best_full;
  row.engine_serial_ms = best_engine;
  engine_parallel =
      gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{0});
  row.engine_parallel_ms =
      single_core() ? kSkipped
                    : time_ms(
                          [&] {
                            engine_parallel = gl::sequential_fault_sim(
                                n, frames, faults, gl::FaultSimOptions{0});
                          },
                          reps);
  if (base != engine_serial || base != engine_parallel)
    report_mismatch(name + " sequential result vs full resim");
  for (bool d : base) row.detected += d;
  return row;
}

struct LedgerRow : bench::PairedTiming {
  std::string case_name;
  long events = 0;  ///< ledger events one enabled run records
};

/// Times one campaign with the fault-lifecycle ledger disabled vs enabled
/// (bench::paired_overhead). Both arms pay the ledger_reset() so the only
/// difference is recording. Budget: <= 5% overhead.
LedgerRow ledger_case(const std::string& name,
                      const std::function<void()>& campaign, int reps_inner,
                      int reps) {
  LedgerRow row;
  row.case_name = name;
  const auto pass = [&] {
    for (int r = 0; r < reps_inner; ++r) {
      observe::ledger_reset();
      campaign();
    }
  };
  static_cast<bench::PairedTiming&>(row) = bench::paired_overhead(
      [&] {
        observe::ledger_disable();
        return time_ms(pass);
      },
      [&] {
        observe::ledger_enable();
        return time_ms(pass);
      },
      reps, reps_inner);
  row.events = observe::ledger_event_count();  // one campaign's worth
  observe::ledger_disable();
  observe::ledger_reset();
  return row;
}

struct ProvRow : bench::PairedTiming {
  std::string case_name;
  long entries = 0;  ///< nodes the recorded map attributes
};

/// Times expand + a serial PPSFP pass with provenance recording off vs on.
/// Recording is a serial side table filled during expansion, so the
/// overhead is all in the expand half; the PPSFP half is included because
/// the acceptance budget (<= 2%) is stated over the whole expand+sim
/// pipeline.
ProvRow provenance_case(const std::string& name, const rtl::Datapath& dp,
                        int width, int blocks_count, int reps_inner,
                        int reps) {
  gl::ExpandOptions base;
  base.width_override = width;
  base.record_provenance = false;
  const gl::Netlist ref = gl::expand_datapath(dp, base).netlist;
  // The netlist is identical with recording on (provenance is bookkeeping
  // only), so the fault list and patterns are shared by both arms.
  const auto faults = gl::enumerate_faults(ref);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(ref.primary_inputs().size()), blocks_count, 0x5EED);

  ProvRow row;
  row.case_name = name;
  {
    gl::ExpandOptions on = base;
    on.record_provenance = true;
    row.entries = static_cast<long>(
        gl::expand_datapath(dp, on).provenance.num_attributed());
  }
  const auto pass = [&](bool record) {
    for (int r = 0; r < reps_inner; ++r) {
      gl::ExpandOptions o = base;
      o.record_provenance = record;
      const gl::ExpandedDesign ed = gl::expand_datapath(dp, o);
      gl::fault_coverage(ed.netlist, blocks, faults, nullptr,
                         gl::FaultSimOptions{1});
    }
  };
  static_cast<bench::PairedTiming&>(row) = bench::paired_overhead(
      [&] { return time_ms([&] { pass(false); }); },
      [&] { return time_ms([&] { pass(true); }); }, reps, reps_inner);
  return row;
}

/// The fewest heartbeats a telemetry row's on pass must stream (at 25 ms
/// intervals) for its overhead to price a sampler that actually fires.
constexpr long kMinHeartbeats = 4;

struct TelemetryRow : bench::PairedTiming {
  std::string case_name;
  long heartbeats = 0;  ///< fewest heartbeat lines any enabled pass streamed

  bool sampled() const { return heartbeats >= kMinHeartbeats; }
};

/// Times one campaign with the live-telemetry layer off vs on (progress
/// counters + heartbeat streaming to a scratch file). The session
/// start/stop — thread spawn and join — sits OUTSIDE the timed
/// region: the budget is on the steady-state cost a long campaign pays,
/// not the one-time setup. `reps_inner` must make a pass span several
/// heartbeat intervals; a row whose on pass streamed fewer than
/// kMinHeartbeats is not a measurement (sampled() is false). Budget: <= 2%
/// overhead.
TelemetryRow telemetry_case(const std::string& name,
                            const std::function<void()>& campaign,
                            int reps_inner, int reps) {
  TelemetryRow row;
  row.case_name = name;
  row.heartbeats = std::numeric_limits<long>::max();
  const char* hb_path = "bench_telemetry_scratch.jsonl";
  const auto pass = [&] {
    for (int r = 0; r < reps_inner; ++r) campaign();
  };
  const auto on_arm = [&] {
    util::TelemetryOptions topts;
    topts.heartbeat_path = hb_path;
    topts.interval_ms = 25;
    util::telemetry_start(topts);
    const double on = time_ms(pass);
    util::telemetry_stop();
    row.heartbeats =
        std::min(row.heartbeats, util::telemetry_heartbeat_count());
    return on;
  };
  static_cast<bench::PairedTiming&>(row) = bench::paired_overhead(
      [&] { return time_ms(pass); }, on_arm, reps, reps_inner);
  util::progress_reset();
  std::remove(hb_path);
  return row;
}

struct SoaWidthRow {
  std::string case_name;  ///< "<circuit>/w<lanes>" — unique bench_diff key
  int lanes = 0;
  double coverage = 0;
  double matrix_ms = 0;  ///< no-drop detection matrix (detection_masks)
  double drop_ms = 0;    ///< dropping coverage pass (fault_coverage)
  double matrix_speedup_vs_w64 = 0;
};

struct SoaThreadRow {
  std::string case_name;  ///< "<circuit>/t<threads>"
  int threads = 0;
  double matrix_ms = kSkipped;  ///< null when threads > hardware threads
};

struct SoaCase {
  std::string circuit;
  std::string backend;  ///< SIMD kernel set the wide engine dispatched to
  int gates = 0;
  std::size_t faults = 0;
  int patterns = 0;
  double lower_ms = 0;  ///< Netlist -> SimGraph lowering, paid once
  std::vector<SoaWidthRow> widths;
  std::vector<SoaThreadRow> threads;
};

/// Compiled-SoA-core section: lowering cost, then single-thread matrix and
/// dropping grading at 64 and 512 lanes (matrix is the workload wide lanes
/// exist for — every fault against every block, the N-detect/compaction
/// shape), then the 512-lane matrix across thread counts. All width rows
/// are cross-checked for bit-identical masks and detected sets.
SoaCase soa_case(const std::string& name, const gl::Netlist& n,
                 int blocks_count, int reps) {
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), blocks_count, 0x5EED);
  SoaCase sc;
  sc.circuit = name;
  sc.backend = gl::to_string(gl::active_simd_backend());
  sc.gates = n.gate_count();
  sc.faults = faults.size();
  sc.patterns = blocks_count * 64;

  // Lowering cost: SimGraph::lower directly, since the cached
  // SimGraph::of path is free after the first call.
  long sink = 0;
  sc.lower_ms = median_ms(
      [&] {
        const gl::SimGraph g = gl::SimGraph::lower(n);
        sink += g.num_nodes();
      },
      reps + 2);
  if (sink < 0) std::fprintf(stderr, "unreachable\n");

  std::vector<std::uint64_t> ref_masks;
  std::vector<bool> ref_detected;
  for (const int lanes : {64, 512}) {
    gl::FaultSimOptions o;
    o.num_threads = 1;
    o.lanes = lanes;
    SoaWidthRow row;
    row.case_name = name + "/w" + std::to_string(lanes);
    row.lanes = lanes;
    std::vector<std::uint64_t> masks;
    row.matrix_ms = median_ms(
        [&] { gl::detection_masks(n, blocks, faults, masks, o); }, reps);
    std::vector<bool> detected;
    row.drop_ms = median_ms(
        [&] {
          detected.clear();
          row.coverage = gl::fault_coverage(n, blocks, faults, &detected, o);
        },
        reps);
    if (lanes == 64) {
      ref_masks = masks;
      ref_detected = detected;
    } else if (masks != ref_masks || detected != ref_detected) {
      report_mismatch(name + " w" + std::to_string(lanes) +
                      " result vs w64");
    }
    row.matrix_speedup_vs_w64 =
        sc.widths.empty() ? 1.0 : sc.widths.front().matrix_ms / row.matrix_ms;
    sc.widths.push_back(row);
  }

  const int hw = gl::FaultSimOptions{}.resolved_threads();
  for (const int t : {1, 2, 4}) {
    gl::FaultSimOptions o;
    o.num_threads = t;
    o.lanes = 512;
    SoaThreadRow row;
    row.case_name = name + "/t" + std::to_string(t);
    row.threads = t;
    if (t <= hw) {
      std::vector<std::uint64_t> masks;
      row.matrix_ms = median_ms(
          [&] { gl::detection_masks(n, blocks, faults, masks, o); }, reps);
      if (masks != ref_masks)
        report_mismatch(name + " t" + std::to_string(t) +
                        " masks vs serial");
    }
    sc.threads.push_back(row);
  }
  return sc;
}

void write_json(const std::vector<PpsfpRow>& ppsfp,
                const std::vector<SeqRow>& seq,
                const std::vector<SoaCase>& soa,
                const std::vector<LedgerRow>& ledger,
                const std::vector<ProvRow>& prov,
                const std::vector<TelemetryRow>& telemetry, int hw,
                int used) {
  FILE* f = std::fopen("BENCH_faultsim.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_faultsim.json\n");
    return;
  }
  // 0x5EED seeds the LFSR pattern blocks every PPSFP case consumes (the
  // sequential cases additionally use 0xFACE for their frame streams).
  bench::write_json_preamble(f, 0x5EED);
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n", hw);
  std::fprintf(f, "  \"threads_used\": %d,\n", used);
  std::fprintf(f, "  \"ppsfp\": [\n");
  for (std::size_t i = 0; i < ppsfp.size(); ++i) {
    const PpsfpRow& r = ppsfp[i];
    std::fprintf(f,
                 "    {\"circuit\": \"%s\", \"gates\": %d, \"faults\": %zu, "
                 "\"patterns\": %d, \"coverage\": %.4f, "
                 "\"serial_ms\": %.3f, \"parallel_ms\": %s, "
                 "\"speedup\": %s, \"speedup_iqr\": %s}%s\n",
                 r.circuit.c_str(), r.gates, r.faults, r.patterns, r.coverage,
                 r.serial_ms, num_or_null(r.parallel_ms, 3).c_str(),
                 num_or_null(r.speedup, 2).c_str(),
                 num_or_null(r.speedup_iqr, 2).c_str(),
                 i + 1 < ppsfp.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sequential\": [\n");
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const SeqRow& r = seq[i];
    std::fprintf(
        f,
        "    {\"circuit\": \"%s\", \"faults\": %zu, \"frames\": %d, "
        "\"detected\": %ld, \"full_resim_ms\": %.3f, "
        "\"engine_serial_ms\": %.3f, \"engine_parallel_ms\": %s, "
        "\"speedup_algorithmic\": %s, \"speedup_total\": %s}%s\n",
        r.circuit.c_str(), r.faults, r.frames, r.detected, r.full_resim_ms,
        r.engine_serial_ms, num_or_null(r.engine_parallel_ms, 3).c_str(),
        num_or_null(r.speedup_algorithmic(), 2).c_str(),
        num_or_null(r.speedup_total(), 2).c_str(),
        i + 1 < seq.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"soa\": [\n");
  for (std::size_t i = 0; i < soa.size(); ++i) {
    const SoaCase& c = soa[i];
    std::fprintf(f,
                 "    {\"circuit\": \"%s\", \"backend\": \"%s\", "
                 "\"gates\": %d, \"faults\": %zu, \"patterns\": %d, "
                 "\"lower_ms\": %.3f,\n     \"widths\": [\n",
                 c.circuit.c_str(), c.backend.c_str(), c.gates, c.faults,
                 c.patterns, c.lower_ms);
    for (std::size_t w = 0; w < c.widths.size(); ++w) {
      const SoaWidthRow& r = c.widths[w];
      std::fprintf(f,
                   "       {\"case\": \"%s\", \"lanes\": %d, "
                   "\"coverage\": %.4f, \"matrix_ms\": %.3f, "
                   "\"drop_ms\": %.3f, \"matrix_speedup_vs_w64\": %.2f}%s\n",
                   r.case_name.c_str(), r.lanes, r.coverage, r.matrix_ms,
                   r.drop_ms, r.matrix_speedup_vs_w64,
                   w + 1 < c.widths.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n     \"threads\": [\n");
    for (std::size_t t = 0; t < c.threads.size(); ++t) {
      const SoaThreadRow& r = c.threads[t];
      std::fprintf(f,
                   "       {\"case\": \"%s\", \"threads\": %d, "
                   "\"matrix_ms\": %s}%s\n",
                   r.case_name.c_str(), r.threads,
                   num_or_null(r.matrix_ms, 3).c_str(),
                   t + 1 < c.threads.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < soa.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"ledger\": [\n");
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const LedgerRow& r = ledger[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"events\": %ld, "
                 "\"off_ms\": %.3f, \"on_ms\": %.3f, "
                 "\"overhead_pct\": %.2f, \"overhead_iqr_pct\": %.2f}%s\n",
                 r.case_name.c_str(), r.events, r.off_ms, r.on_ms,
                 r.overhead_pct, r.overhead_iqr_pct,
                 i + 1 < ledger.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"provenance\": [\n");
  for (std::size_t i = 0; i < prov.size(); ++i) {
    const ProvRow& r = prov[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"entries\": %ld, "
                 "\"off_ms\": %.3f, \"on_ms\": %.3f, "
                 "\"overhead_pct\": %.2f, \"overhead_iqr_pct\": %.2f}%s\n",
                 r.case_name.c_str(), r.entries, r.off_ms, r.on_ms,
                 r.overhead_pct, r.overhead_iqr_pct,
                 i + 1 < prov.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"telemetry\": [\n");
  for (std::size_t i = 0; i < telemetry.size(); ++i) {
    const TelemetryRow& r = telemetry[i];
    // An unsampled row's overhead is not a measurement: null, like a
    // skipped parallel time.
    const auto pct = [&](double v) {
      return r.sampled() ? util::fmt(v, 2) : std::string("null");
    };
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"heartbeats\": %ld, "
                 "\"off_ms\": %.3f, \"on_ms\": %.3f, "
                 "\"overhead_pct\": %s, \"overhead_iqr_pct\": %s}%s\n",
                 r.case_name.c_str(), r.heartbeats, r.off_ms, r.on_ms,
                 pct(r.overhead_pct).c_str(), pct(r.overhead_iqr_pct).c_str(),
                 i + 1 < telemetry.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::write_metrics_field(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace tsyn

int main() {
  using namespace tsyn;
  const int hw = gl::FaultSimOptions{}.resolved_threads();
  bench::print_header(
      "PERF-FAULTSIM",
      "Engine claim: sharding the fault list over workers scales PPSFP with "
      "the\nhardware, and the sequential engine's fault-slot-parallel "
      "simulation matches\nthe Netlist-walking full-resimulation oracle "
      "and scales over faults.");
  std::printf("hardware threads: %d\n\n", hw);

  // 11 serial/parallel pairs per circuit (9 on the two large ones) give
  // each speedup a quartile spread.
  std::vector<PpsfpRow> ppsfp;
  const gl::Netlist diffeq_scan = scan_netlist(cdfg::diffeq(), 8);
  ppsfp.push_back(ppsfp_case("diffeq_scan_w8", diffeq_scan, 8, 11));
  ppsfp.push_back(ppsfp_case("ewf_scan_w8", scan_netlist(cdfg::ewf(), 8),
                             8, 11));
  ppsfp.push_back(ppsfp_case("tseng_scan_w8", scan_netlist(cdfg::tseng(), 8),
                             8, 11));
  gl::Netlist random160_scan;
  {
    cdfg::GeneratorParams p;
    p.num_ops = 80;
    p.num_inputs = 8;
    p.num_states = 4;
    p.seed = 17;
    ppsfp.push_back(ppsfp_case("random80_scan_w8",
                               scan_netlist(cdfg::random_cdfg(p), 8), 4, 9));
    p.num_ops = 160;
    p.seed = 23;
    // The largest generated netlist: a 160-op random behavior, full scan.
    // Kept alive for the soa section below.
    random160_scan = scan_netlist(cdfg::random_cdfg(p), 8);
    ppsfp.push_back(ppsfp_case("random160_scan_w8", random160_scan, 4, 9));
  }

  util::Table pt({"circuit", "gates", "faults", "patterns", "serial ms",
                  "parallel ms", "speedup", "IQR", ">= 3x"});
  for (const PpsfpRow& r : ppsfp)
    pt.add_row({r.circuit, std::to_string(r.gates), std::to_string(r.faults),
                std::to_string(r.patterns), util::fmt(r.serial_ms, 1),
                fmt_or_dash(r.parallel_ms, 1), fmt_or_dash(r.speedup, 2),
                fmt_or_dash(r.speedup_iqr, 2), ppsfp_verdict(r, hw)});
  bench::print_table(pt);

  // Compiled-SoA-core rows: matrix (no-drop) and dropping grading per lane
  // width, 512-lane matrix per thread count, plus the one-time lowering
  // cost. The headline claim is the width-512 matrix speedup on the
  // largest netlist.
  std::vector<SoaCase> soa;
  soa.push_back(soa_case("diffeq_scan_w8", diffeq_scan, 8, 5));
  soa.push_back(soa_case("random160_scan_w8", random160_scan, 8, 3));

  util::Table wt({"case", "lanes", "coverage", "matrix ms", "drop ms",
                  "matrix speedup"});
  for (const SoaCase& c : soa)
    for (const SoaWidthRow& r : c.widths)
      wt.add_row({r.case_name, std::to_string(r.lanes),
                  util::fmt(r.coverage, 4), util::fmt(r.matrix_ms, 1),
                  util::fmt(r.drop_ms, 1),
                  util::fmt(r.matrix_speedup_vs_w64, 2)});
  bench::print_table(wt);

  util::Table tt({"case", "threads", "matrix ms (512 lanes)"});
  for (const SoaCase& c : soa) {
    std::printf("soa %s: backend=%s lower_ms=%s\n", c.circuit.c_str(),
                c.backend.c_str(), util::fmt(c.lower_ms, 2).c_str());
    for (const SoaThreadRow& r : c.threads)
      tt.add_row({r.case_name, std::to_string(r.threads),
                  fmt_or_dash(r.matrix_ms, 1)});
  }
  bench::print_table(tt);

  std::vector<SeqRow> seq;
  // The EXP-SEQATPG circuit set (rings L=1..6 at L+4 frames, pipelines
  // D=1..8 at D+3 frames) aggregated over enough repetitions to time the
  // microsecond-scale campaigns, plus non-scan datapath expansions.
  {
    std::vector<gl::Netlist> circs;
    std::vector<int> nframes;
    for (int len = 1; len <= 6; ++len) {
      circs.push_back(ring_circuit(len));
      nframes.push_back(len + 4);
    }
    for (int depth = 1; depth <= 8; ++depth) {
      circs.push_back(pipeline_circuit(depth));
      nframes.push_back(depth + 3);
    }
    seq.push_back(seq_suite_case("seqatpg_rings_pipelines", circs, nframes,
                                 /*reps_inner=*/1500, /*reps=*/4));
  }
  seq.push_back(seq_case("ring48", ring_circuit(48), 60, 5));
  seq.push_back(seq_case("diffeq_noscan_w4", seq_netlist(cdfg::diffeq(), 4),
                         32, 5));
  seq.push_back(seq_case("iir_noscan_w4", seq_netlist(cdfg::iir_biquad(), 4),
                         32, 5));
  seq.push_back(seq_case("tseng_noscan_w4", seq_netlist(cdfg::tseng(), 4),
                         32, 5));

  util::Table st({"circuit", "faults", "frames", "full resim ms",
                  "engine serial ms", "engine parallel ms", "alg speedup",
                  "total speedup"});
  for (const SeqRow& r : seq)
    st.add_row({r.circuit, std::to_string(r.faults), std::to_string(r.frames),
                util::fmt(r.full_resim_ms, 1),
                util::fmt(r.engine_serial_ms, 1),
                fmt_or_dash(r.engine_parallel_ms, 1),
                util::fmt(r.speedup_algorithmic(), 2),
                fmt_or_dash(r.speedup_total(), 2)});
  bench::print_table(st);

  // Fault-ledger recording cost on the two engine shapes the ledger hooks
  // into: a serial PPSFP block run and a serial sequential campaign.
  std::vector<LedgerRow> ledger;
  {
    const gl::Netlist n = scan_netlist(cdfg::diffeq(), 8);
    const auto faults = gl::enumerate_faults(n);
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), 8, 0x5EED);
    ledger.push_back(ledger_case(
        "diffeq_scan_w8_ppsfp",
        [&] {
          gl::fault_coverage(n, blocks, faults, nullptr,
                             gl::FaultSimOptions{1});
        },
        /*reps_inner=*/4, /*reps=*/15));
  }
  {
    const gl::Netlist n = seq_netlist(cdfg::diffeq(), 4);
    const auto faults = gl::enumerate_faults(n);
    const auto frames = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), 32, 0xFACE);
    ledger.push_back(ledger_case(
        "diffeq_noscan_w4_seq",
        [&] {
          gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{1});
        },
        /*reps_inner=*/1, /*reps=*/15));
  }

  util::Table lt({"case", "events", "ledger off ms", "ledger on ms",
                  "overhead", "IQR"});
  for (const LedgerRow& r : ledger)
    lt.add_row({r.case_name, std::to_string(r.events),
                util::fmt(r.off_ms, 2), util::fmt(r.on_ms, 2),
                util::fmt(r.overhead_pct, 1) + "%",
                util::fmt(r.overhead_iqr_pct, 1) + "%"});
  bench::print_table(lt);

  // Provenance recording cost over the full expand + serial-PPSFP
  // pipeline (budget: <= 2%).
  std::vector<ProvRow> prov;
  {
    const hls::Synthesis syn = bench::synthesize_standard(cdfg::diffeq());
    rtl::Datapath dp = syn.rtl.datapath;
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
    prov.push_back(provenance_case("diffeq_scan_w8_expand_ppsfp", dp, 8, 8,
                                   /*reps_inner=*/16, /*reps=*/21));
  }
  {
    const hls::Synthesis syn = bench::synthesize_standard(cdfg::tseng());
    rtl::Datapath dp = syn.rtl.datapath;
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
    prov.push_back(provenance_case("tseng_scan_w8_expand_ppsfp", dp, 8, 8,
                                   /*reps_inner=*/16, /*reps=*/21));
  }

  util::Table vt({"case", "entries", "record off ms", "record on ms",
                  "overhead", "IQR"});
  for (const ProvRow& r : prov)
    vt.add_row({r.case_name, std::to_string(r.entries),
                util::fmt(r.off_ms, 2), util::fmt(r.on_ms, 2),
                util::fmt(r.overhead_pct, 1) + "%",
                util::fmt(r.overhead_iqr_pct, 1) + "%"});
  bench::print_table(vt);

  // Live-telemetry cost on the same two engine shapes: heartbeat
  // streaming + progress counters vs both off (budget: <= 2%). One
  // campaign takes 3-5 ms on a 4-vCPU AVX-512 host, so a pass of 64 spans
  // about eight heartbeat intervals.
  std::vector<TelemetryRow> telemetry;
  {
    const gl::Netlist n = scan_netlist(cdfg::diffeq(), 8);
    const auto faults = gl::enumerate_faults(n);
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), 8, 0x5EED);
    telemetry.push_back(telemetry_case(
        "diffeq_scan_w8_ppsfp",
        [&] {
          gl::fault_coverage(n, blocks, faults, nullptr,
                             gl::FaultSimOptions{1});
        },
        /*reps_inner=*/64, /*reps=*/15));
  }
  {
    const gl::Netlist n = seq_netlist(cdfg::diffeq(), 4);
    const auto faults = gl::enumerate_faults(n);
    const auto frames = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), 32, 0xFACE);
    telemetry.push_back(telemetry_case(
        "diffeq_noscan_w4_seq",
        [&] {
          gl::sequential_fault_sim(n, frames, faults, gl::FaultSimOptions{1});
        },
        /*reps_inner=*/64, /*reps=*/15));
  }

  util::Table xt({"case", "heartbeats", "telemetry off ms",
                  "telemetry on ms", "overhead", "IQR"});
  int unsampled = 0;
  for (const TelemetryRow& r : telemetry) {
    xt.add_row({r.case_name, std::to_string(r.heartbeats),
                util::fmt(r.off_ms, 2), util::fmt(r.on_ms, 2),
                r.sampled() ? util::fmt(r.overhead_pct, 1) + "%" : "FAIL",
                r.sampled() ? util::fmt(r.overhead_iqr_pct, 1) + "%" : "-"});
    if (!r.sampled()) {
      ++unsampled;
      std::fprintf(stderr,
                   "SHAPE: telemetry %s streamed %ld heartbeat(s) per on "
                   "pass, fewer than %ld: too few to price the sampler\n",
                   r.case_name.c_str(), r.heartbeats, kMinHeartbeats);
    }
  }
  bench::print_table(xt);

  write_json(ppsfp, seq, soa, ledger, prov, telemetry, hw, hw);
  std::printf(
      "Wrote BENCH_faultsim.json. Shape check: PPSFP speedup should track "
      "the\nhardware thread count (>= 3x on >= 4 cores, skipped on 1 core; "
      "the >= 3x\ncolumn names a verdict only when the median paired "
      "speedup's distance to\n3x exceeds its IQR); the sequential engine "
      "should match the oracle on every\ncircuit and run at least as fast "
      "serially (alg speedup >= 1); the 512-lane\nmatrix speedup over 64 "
      "lanes should reach >= 3x on the largest netlist;\nledger recording "
      "overhead should stay within 5%%; provenance recording within\n2%%; "
      "live telemetry (progress counters + heartbeats) within 2%%, over on\n"
      "passes that stream >= %ld heartbeats. An overhead meets or misses its "
      "budget\nonly when its distance to the budget exceeds its IQR. Any "
      "result mismatch or\nunsampled telemetry row exits 1.\n",
      kMinHeartbeats);
  if (g_mismatches > 0 || unsampled > 0) {
    std::fprintf(stderr,
                 "FAIL: %d result mismatch(es), %d unsampled telemetry "
                 "row(s), see above\n",
                 g_mismatches, unsampled);
    return 1;
  }
  return 0;
}
