#include "gatelevel/faultsim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <thread>

#include "gatelevel/faultsim_wide.h"
#include "gatelevel/widebits.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace tsyn::gl {

int FaultSimOptions::resolved_threads() const {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// ---------------------------------------------------------------------------
// FaultSimulator — the shared PPSFP shard loop, one 64-lane block per pass.
// ---------------------------------------------------------------------------

struct FaultSimulator::Engine {
  explicit Engine(const SimGraph& g) : shard(g) {}
  wide_detail::PpsfpShard<1, ScalarWords<1>> shard;
};

FaultSimulator::FaultSimulator(const Netlist& n,
                               const FaultSimOptions& options)
    : n_(n), options_(options) {
  if (!n.flops().empty())
    throw std::runtime_error(
        "FaultSimulator is combinational; expand state as PI/PO first");
  // Lowers the netlist before any worker reads it.
  engine_ = std::make_unique<Engine>(SimGraph::of(n));
}

FaultSimulator::FaultSimulator(FaultSimulator&&) noexcept = default;
FaultSimulator::~FaultSimulator() = default;

Bits FaultSimulator::good_value(int node) const {
  const std::uint64_t* r = engine_->shard.good().row(node);
  return Bits{r[0], r[1]};
}

void FaultSimulator::grade(const std::vector<Bits>& pi_values,
                           const std::vector<Fault>& faults,
                           const std::vector<bool>* skip,
                           std::vector<std::uint64_t>& masks) {
  assert(pi_values.size() == n_.primary_inputs().size());
  engine_->shard.grade(std::span(&pi_values, 1), faults, skip,
                       options_.resolved_threads(), masks);
  good_po_.clear();
  for (int po : n_.primary_outputs()) good_po_.push_back(good_value(po));
}

int FaultSimulator::run_block(const std::vector<Bits>& pi_values,
                              const std::vector<Fault>& faults,
                              std::vector<bool>& detected) {
  detected.resize(faults.size(), false);
  grade(pi_values, faults, &detected, masks_);
  const long pattern_base = 64 * blocks_run_++;
  const bool ledger_on = observe::ledger_enabled();
  int newly_detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i] || masks_[i] == 0) continue;
    detected[i] = true;
    ++newly_detected;
    if (ledger_on)
      observe::record_detected(observe::make_fault_key(faults[i]),
                               pattern_base + std::countr_zero(masks_[i]));
  }
  static util::Counter& m_blocks =
      util::metrics().counter("faultsim.ppsfp.blocks");
  static util::Counter& m_detected =
      util::metrics().counter("faultsim.ppsfp.faults_detected");
  m_blocks.add();
  m_detected.add(newly_detected);
  static util::Progress& p_patterns = util::progress("sim.patterns");
  p_patterns.add(64);
  return newly_detected;
}

void FaultSimulator::run_block_detail(const std::vector<Bits>& pi_values,
                                      const std::vector<Fault>& faults,
                                      std::vector<std::uint64_t>& lane_masks) {
  grade(pi_values, faults, nullptr, lane_masks);
  static util::Progress& p_patterns = util::progress("sim.patterns");
  p_patterns.add(64);
}

// ---------------------------------------------------------------------------
// Campaigns: W×64 patterns per good-machine pass and per fault
// propagation, value rows stored SoA (W value words then W x-words per
// node) so the kernels stream whole rows through the chosen SIMD backend.
// The engine itself lives in faultsim_wide.h, instantiated per ISA in
// dedicated TUs; only the runtime dispatch is here.
// ---------------------------------------------------------------------------

namespace {

using wide_detail::wide_campaign;

/// Per-width backend dispatch: the widest runtime-detected backend whose
/// kernel TU is in the build (TSYN_WIDE_AVX2 / TSYN_WIDE_AVX512, see
/// CMakeLists.txt), demoted to scalar by TSYN_FORCE_SCALAR
/// (active_simd_backend). The ISA-specific entry points live in TUs
/// compiled with the matching -m flags; this TU stays portable, so the
/// binary runs on any x86-64 and still uses AVX where the CPU has it.
/// W=1 rows are a single {v, x} word pair, so W=1 is always scalar.
template <int W>
void run_wide_campaign(const Netlist& n,
                       const std::vector<std::vector<Bits>>& blocks,
                       const std::vector<Fault>& faults,
                       const FaultSimOptions& options,
                       std::vector<bool>* detected,
                       std::vector<std::uint64_t>* matrix) {
  const SimdBackend be = active_simd_backend();
  (void)be;
#if defined(TSYN_WIDE_AVX512)
  if constexpr (W == 8) {
    if (be == SimdBackend::kAvx512) {
      wide_detail::wide_campaign_avx512_w8(n, blocks, faults, options,
                                           detected, matrix);
      return;
    }
  }
#endif
#if defined(TSYN_WIDE_AVX2)
  if constexpr (W == 8) {
    if (be == SimdBackend::kAvx2 || be == SimdBackend::kAvx512) {
      wide_detail::wide_campaign_avx2_w8(n, blocks, faults, options,
                                         detected, matrix);
      return;
    }
  }
#endif
  wide_campaign<W, ScalarWords<W>>(n, blocks, faults, options, detected,
                                   matrix);
}

/// Runs the campaign at options' resolved lane width.
void run_campaign(const Netlist& n,
                  const std::vector<std::vector<Bits>>& blocks,
                  const std::vector<Fault>& faults,
                  const FaultSimOptions& options, std::vector<bool>* detected,
                  std::vector<std::uint64_t>* matrix) {
  if (options.resolved_lanes() == 512)
    run_wide_campaign<8>(n, blocks, faults, options, detected, matrix);
  else
    run_wide_campaign<1>(n, blocks, faults, options, detected, matrix);
}

}  // namespace

double fault_coverage(const Netlist& n,
                      const std::vector<std::vector<Bits>>& blocks,
                      const std::vector<Fault>& faults,
                      std::vector<bool>* detected_out,
                      const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.ppsfp");
  if (observe::ledger_enabled())
    observe::record_universe(static_cast<long>(faults.size()));
  util::progress("sim.patterns")
      .add_total(64 * static_cast<std::int64_t>(blocks.size()));
  std::vector<bool> detected(faults.size(), false);
  run_campaign(n, blocks, faults, options, &detected, nullptr);
  const long hit = std::count(detected.begin(), detected.end(), true);
  if (detected_out) *detected_out = std::move(detected);
  return faults.empty() ? 1.0
                        : static_cast<double>(hit) /
                              static_cast<double>(faults.size());
}

void detection_masks(const Netlist& n,
                     const std::vector<std::vector<Bits>>& blocks,
                     const std::vector<Fault>& faults,
                     std::vector<std::uint64_t>& masks,
                     const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.matrix");
  const std::size_t count = faults.size();
  const std::size_t nb = blocks.size();
  masks.assign(count * nb, 0);
  if (count == 0 || nb == 0) return;
  util::progress("sim.patterns").add_total(64 * static_cast<std::int64_t>(nb));
  run_campaign(n, blocks, faults, options, nullptr, &masks);
}

// ---------------------------------------------------------------------------
// Sequential fault simulation.
// ---------------------------------------------------------------------------

namespace {

/// Runs the slot engine at W=8 on the widest backend the CPU has among
/// the compiled-in kernel TUs (see run_wide_campaign).
void run_seq_slots(wide_detail::SeqJob& job, int workers) {
  const SimdBackend be = active_simd_backend();
  (void)be;
#if defined(TSYN_WIDE_AVX512)
  if (be == SimdBackend::kAvx512) {
    wide_detail::seq_slots_avx512_w8(job, workers);
    return;
  }
#endif
#if defined(TSYN_WIDE_AVX2)
  if (be == SimdBackend::kAvx2 || be == SimdBackend::kAvx512) {
    wide_detail::seq_slots_avx2_w8(job, workers);
    return;
  }
#endif
  wide_detail::seq_slots<8, ScalarWords<8>>(job, workers);
}

}  // namespace

std::vector<bool> sequential_fault_sim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults, const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.seq");
  const bool ledger_on = observe::ledger_enabled();
  if (ledger_on) observe::record_universe(static_cast<long>(faults.size()));
  static util::Progress& p_seq = util::progress("sim.seq.faults");
  p_seq.add_total(static_cast<std::int64_t>(faults.size()));
  const int count = static_cast<int>(faults.size());
  std::vector<bool> detected(faults.size(), false);
  if (count == 0 || input_frames.empty()) return detected;

  // Lowered on this thread before any worker reads it.
  const SimGraph& g = SimGraph::of(n);
  const std::vector<std::int32_t>& pis = g.pis();
  const std::vector<std::int32_t>& pos = g.pos();
  const std::vector<std::int32_t>& ffs = g.ffs();
  const std::size_t nn = static_cast<std::size_t>(g.num_nodes());
  wide_detail::SeqJob job;
  job.g = &g;
  job.frames = &input_frames;
  job.faults = &faults;
  for (const std::int32_t q : ffs)
    job.d_of.push_back(g.fanin()[g.fanin_off()[q]]);
  long gates_per_frame = 0;
  for (int id = 0; id < g.num_nodes(); ++id)
    if (g.type(id) != GateType::kInput && g.type(id) != GateType::kDff)
      ++gates_per_frame;

  // The good machine, simulated once: its PO values per frame, shared
  // read-only by the workers, and per node the lanes that ever carried a
  // known 0 / known 1 in any frame. Not the whole trace: that would double
  // peak RSS.
  const std::size_t num_frames = input_frames.size();
  job.good_po.resize(num_frames * pos.size());
  {
    std::vector<Bits> state(ffs.size(), Bits::unknown());
    std::vector<Bits> values(nn, Bits::unknown());
    std::vector<std::uint64_t> known0(nn, 0), known1(nn, 0);
    for (std::size_t frame = 0; frame < num_frames; ++frame) {
      const std::vector<Bits>& in = input_frames[frame];
      for (std::size_t i = 0; i < pis.size(); ++i)
        values[pis[i]] = i < in.size() ? in[i] : Bits::unknown();
      for (std::size_t i = 0; i < ffs.size(); ++i) values[ffs[i]] = state[i];
      simulate_frame(n, values);
      for (std::size_t i = 0; i < ffs.size(); ++i)
        state[i] = job.d_of[i] >= 0 ? values[job.d_of[i]] : Bits::unknown();
      for (std::size_t k = 0; k < pos.size(); ++k)
        job.good_po[frame * pos.size() + k] = values[pos[k]];
      for (std::size_t id = 0; id < nn; ++id) {
        known0[id] |= ~values[id].v & ~values[id].x;
        known1[id] |= values[id].v & ~values[id].x;
      }
    }

    // Activation pre-filter (exact). Until a fault site carries the known
    // opposite of its stuck value, the faulty machine only refines X
    // values of the good one, and three-valued evaluation is monotone, so
    // no PO can provably differ. A fault whose site never does, in any
    // frame or lane, is undetectable and not simulated. A pin fault's
    // site is its driving fanin; DFF pin faults have no effect at all.
    for (int fi = 0; fi < count; ++fi) {
      const Fault& f = faults[fi];
      if (f.fanin_index >= 0 && g.type(f.node) == GateType::kDff) continue;
      const int site = f.fanin_index < 0
                           ? f.node
                           : g.fanin()[g.fanin_off()[f.node] + f.fanin_index];
      if ((f.stuck_at_one ? known0 : known1)[site] != 0)
        job.todo.push_back(fi);
    }
  }
  const long inactive = count - static_cast<long>(job.todo.size());
  p_seq.add(inactive);

  job.frames_run.assign(faults.size(), 0);
  job.hit.assign(faults.size(), 0);
  const int workers = std::min(options.resolved_threads(),
                               static_cast<int>(job.todo.size()));
  if (workers > 0) run_seq_slots(job, workers);

  // Results, ledger events and counters, serially in fault order (the
  // ledger sorts its journeys, so the recording order never shows).
  util::Histogram& frames_to_detect =
      util::metrics().histogram("faultsim.seq.frames_to_detect");
  long frames_done = 0, hits = 0, dropped_mid = 0;
  for (int fi = 0; fi < count; ++fi) {
    const long frames = job.frames_run[fi];
    const bool hit = job.hit[fi] != 0;
    detected[fi] = hit;
    frames_done += frames;
    if (hit) {
      ++hits;
      if (frames < static_cast<long>(num_frames)) ++dropped_mid;
      frames_to_detect.observe(frames);
    }
    if (ledger_on) {
      const observe::FaultKey key = observe::make_fault_key(faults[fi]);
      if (hit) observe::record_seq_detected(key, frames);
      observe::record_sim_effort(key, frames * gates_per_frame);
    }
  }
  static util::Counter& m_faults =
      util::metrics().counter("faultsim.seq.faults_simulated");
  static util::Counter& m_inactive =
      util::metrics().counter("faultsim.seq.faults_inactive");
  static util::Counter& m_frames =
      util::metrics().counter("faultsim.seq.frames_simulated");
  static util::Counter& m_events =
      util::metrics().counter("faultsim.seq.events");
  static util::Counter& m_detected =
      util::metrics().counter("faultsim.seq.faults_detected");
  static util::Counter& m_dropped =
      util::metrics().counter("faultsim.seq.faults_dropped_midseq");
  m_faults.add(static_cast<long>(job.todo.size()));
  m_inactive.add(inactive);
  m_frames.add(frames_done);
  m_events.add(frames_done * gates_per_frame);
  m_detected.add(hits);
  m_dropped.add(dropped_mid);
  return detected;
}

namespace {

// Full-circuit frame simulation with one fault injected.
void simulate_frame_with_fault(const Netlist& n, const Fault& f,
                               std::vector<Bits>& values) {
  const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
  Bits fanin_vals[kMaxFanin];
  for (int id : n.topo_order()) {
    const Node& node = n.node(id);
    if (node.type != GateType::kInput && node.type != GateType::kDff) {
      for (std::size_t i = 0; i < node.fanins.size(); ++i) {
        Bits v = values[node.fanins[i]];
        if (f.fanin_index >= 0 && id == f.node &&
            static_cast<int>(i) == f.fanin_index)
          v = stuck;
        fanin_vals[i] = v;
      }
      values[id] = eval_gate(node.type, fanin_vals,
                             static_cast<int>(node.fanins.size()));
    }
    if (f.fanin_index < 0 && id == f.node) values[id] = stuck;
  }
}

}  // namespace

std::vector<bool> sequential_fault_sim_full_resim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults) {
  // Good trace.
  const auto good = simulate_sequence(n, input_frames);

  std::vector<bool> detected(faults.size(), false);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
    std::vector<Bits> state(n.flops().size(), Bits::unknown());
    for (std::size_t frame = 0; frame < input_frames.size() && !detected[fi];
         ++frame) {
      std::vector<Bits> values(n.num_nodes(), Bits::unknown());
      for (std::size_t i = 0; i < n.primary_inputs().size(); ++i)
        values[n.primary_inputs()[i]] = i < input_frames[frame].size()
                                            ? input_frames[frame][i]
                                            : Bits::unknown();
      for (std::size_t i = 0; i < n.flops().size(); ++i)
        values[n.flops()[i]] = state[i];
      // A stuck-at on a DFF output overrides its state.
      if (f.fanin_index < 0 && n.node(f.node).type == GateType::kDff)
        values[f.node] = stuck;
      simulate_frame_with_fault(n, f, values);
      for (std::size_t i = 0; i < n.flops().size(); ++i) {
        const int d = n.node(n.flops()[i]).fanins[0];
        state[i] = d >= 0 ? values[d] : Bits::unknown();
      }
      for (int po : n.primary_outputs()) {
        const Bits& g = good[frame][po];
        const Bits& b = values[po];
        if (((g.v ^ b.v) & ~g.x & ~b.x) != 0) {
          detected[fi] = true;
          break;
        }
      }
    }
  }
  return detected;
}

}  // namespace tsyn::gl
