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
#include "util/thread_pool.h"
#include "util/trace.h"

namespace tsyn::gl {

namespace {

/// Items claimed per work-stealing grab by the sequential engine: each
/// fault costs a whole frame sweep, so chunks smaller than PPSFP's
/// (kPpsfpStealChunk) keep the tail short.
constexpr int kSeqStealChunk = 4;

}  // namespace

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
  if constexpr (W > 1) {
    if (be == SimdBackend::kAvx2 || be == SimdBackend::kAvx512) {
      if constexpr (W == 4)
        wide_detail::wide_campaign_avx2_w4(n, blocks, faults, options,
                                           detected, matrix);
      else
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
  switch (options.resolved_lanes()) {
    case 256:
      run_wide_campaign<4>(n, blocks, faults, options, detected, matrix);
      break;
    case 512:
      run_wide_campaign<8>(n, blocks, faults, options, detected, matrix);
      break;
    default:
      run_wide_campaign<1>(n, blocks, faults, options, detected, matrix);
  }
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
  std::vector<std::int32_t> d_of(ffs.size());  // -1 = unconnected D pin
  for (std::size_t i = 0; i < ffs.size(); ++i)
    d_of[i] = g.fanin()[g.fanin_off()[ffs[i]]];
  long gates_per_frame = 0;
  for (int id = 0; id < g.num_nodes(); ++id)
    if (g.type(id) != GateType::kInput && g.type(id) != GateType::kDff)
      ++gates_per_frame;

  // One clock frame of the good (f == nullptr) or faulty machine: preset
  // the PIs (missing values are X) and the carried state, evaluate the
  // whole frame, capture the next state from the D nodes.
  auto step = [&](std::size_t frame, const Fault* f, std::vector<Bits>& state,
                  std::vector<Bits>& values) {
    const std::vector<Bits>& in = input_frames[frame];
    for (std::size_t i = 0; i < pis.size(); ++i)
      values[pis[i]] = i < in.size() ? in[i] : Bits::unknown();
    for (std::size_t i = 0; i < ffs.size(); ++i) values[ffs[i]] = state[i];
    simulate_frame(n, values, f);
    for (std::size_t i = 0; i < ffs.size(); ++i)
      state[i] = d_of[i] >= 0 ? values[d_of[i]] : Bits::unknown();
  };

  // Good-machine PO values per frame, simulated once and shared
  // (read-only) by every worker.
  const std::size_t num_frames = input_frames.size();
  const std::size_t num_pos = pos.size();
  std::vector<Bits> good_po(num_frames * num_pos);
  {
    std::vector<Bits> state(ffs.size(), Bits::unknown());
    std::vector<Bits> values(g.num_nodes(), Bits::unknown());
    for (std::size_t frame = 0; frame < num_frames; ++frame) {
      step(frame, nullptr, state, values);
      for (std::size_t k = 0; k < num_pos; ++k)
        good_po[frame * num_pos + k] = values[pos[k]];
    }
  }

  // Per-worker scratch, allocated once and reused across the worker's
  // whole fault shard.
  struct Scratch {
    std::vector<Bits> values, state;
    /// Slot-private effort counters, merged into the registry at the end.
    long faults_done = 0, frames_done = 0, detected = 0, dropped_mid = 0;
  };
  const int workers = std::min(options.resolved_threads(), count);
  std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
  for (Scratch& s : scratch) {
    s.values.assign(g.num_nodes(), Bits::unknown());
    s.state.resize(ffs.size());
  }

  util::Histogram& frames_to_detect =
      util::metrics().histogram("faultsim.seq.frames_to_detect");
  std::vector<char> det(faults.size(), 0);
  auto simulate_fault = [&](int fi, int slot) {
    const Fault& f = faults[fi];
    Scratch& s = scratch[slot];
    ++s.faults_done;
    std::fill(s.state.begin(), s.state.end(), Bits::unknown());
    std::size_t frame = 0;  // frames simulated so far
    bool hit = false;
    while (!hit && frame < num_frames) {
      step(frame, &f, s.state, s.values);
      const Bits* good = &good_po[frame++ * num_pos];
      for (std::size_t k = 0; k < num_pos && !hit; ++k) {
        const Bits& gv = good[k];
        const Bits& fv = s.values[pos[k]];
        hit = ((gv.v ^ fv.v) & ~gv.x & ~fv.x) != 0;
      }
    }
    // A detected fault is dropped at its first detecting frame.
    det[fi] = hit;
    s.frames_done += static_cast<long>(frame);
    if (hit) {
      ++s.detected;
      if (frame < num_frames) ++s.dropped_mid;
      frames_to_detect.observe(static_cast<std::int64_t>(frame));
    }
    if (ledger_on) {
      const observe::FaultKey key = observe::make_fault_key(f);
      if (hit) observe::record_seq_detected(key, static_cast<long>(frame));
      observe::record_sim_effort(key,
                                 static_cast<long>(frame) * gates_per_frame);
    }
    p_seq.add(1);
  };
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) simulate_fault(i, 0);
  } else {
    util::ThreadPool::shared().run_chunked(count, workers, kSeqStealChunk,
                                           simulate_fault);
  }

  // Merge the slot-private effort counters (stable after the pool returns).
  static util::Counter& m_faults =
      util::metrics().counter("faultsim.seq.faults_simulated");
  static util::Counter& m_frames =
      util::metrics().counter("faultsim.seq.frames_simulated");
  static util::Counter& m_events =
      util::metrics().counter("faultsim.seq.events");
  static util::Counter& m_detected =
      util::metrics().counter("faultsim.seq.faults_detected");
  static util::Counter& m_dropped =
      util::metrics().counter("faultsim.seq.faults_dropped_midseq");
  long done = 0, biggest = 0;
  for (const Scratch& s : scratch) {
    m_frames.add(s.frames_done);
    m_events.add(s.frames_done * gates_per_frame);
    m_detected.add(s.detected);
    m_dropped.add(s.dropped_mid);
    done += s.faults_done;
    biggest = std::max(biggest, s.faults_done);
  }
  m_faults.add(done);
  if (workers > 1 && done > 0)
    util::metrics()
        .gauge("faultsim.seq.shard_imbalance")
        .set(static_cast<double>(biggest) * workers /
             static_cast<double>(done));

  for (std::size_t i = 0; i < faults.size(); ++i)
    detected[i] = det[i] != 0;
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
