// The wide fault-simulation engines, templated over the lane width W
// (64-bit words per row: 1 or 8) and the SIMD word-vector backend V
// (widebits.h). The combinational PPSFP engine is the only combinational
// fault propagator: W=1 serves FaultSimulator and 64-lane grading, W=8
// the 512-lane campaigns. The sequential slot engine (SeqSlots) runs
// at W=8, one faulty machine per word. This header is instantiated by
// several translation units compiled with different ISA flags:
//
//   faultsim.cpp         (portable flags)  -> W=1/8 on ScalarWords<W>,
//                                             seq_slots<8, ScalarWords<8>>
//   faultsim_avx2.cpp    (-mavx2)          -> wide_campaign<8, Avx2Words>,
//                                             seq_slots<8, Avx2Words>
//   faultsim_avx512.cpp  (-mavx512f)       -> wide_campaign<8, Avx512Words>,
//                                             seq_slots<8, Avx512Words>
//
// and faultsim.cpp picks an entry point at runtime from what the CPU
// supports. Every template here therefore carries V in its parameter list
// even where the code never touches V: instantiations from
// differently-flagged TUs must have distinct symbols, or the linker
// could keep an AVX-encoded comdat copy and hand it to the scalar path on
// a CPU without that ISA. For the same reason only faultsim*.cpp include
// this header; faultsim.h keeps it out of every other TU.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"
#include "gatelevel/widebits.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace tsyn::gl::wide_detail {

/// Items claimed per work-stealing grab. Fault propagations are cheap
/// (microseconds on small benches), so claiming one per atomic add is pure
/// contention; a chunk this size amortizes it while the tail imbalance
/// stays under a handful of propagations.
constexpr int kPpsfpStealChunk = 16;

/// Good-machine value rows for one super-block, shared read-only by every
/// worker's propagator. Rows are interleaved: node id owns 2W contiguous
/// words, the W value words then the W x words — one pointer addresses a
/// node's whole three-valued row and the row sits on adjacent cache lines
/// (split v/x arrays cost twice the line and TLB traffic on the per-event
/// hot path).
template <int W>
struct WideGood {
  std::vector<std::uint64_t> rows;  // node-major, 2W words per node

  const std::uint64_t* row(int id) const {
    return &rows[static_cast<std::size_t>(id) * 2 * W];
  }
};

/// Evaluates one V-chunk (V::kWords lanes-of-64 at word offset `off`) of a
/// gate from per-fanin row pointers. These are eval_gate's formulas routed
/// through the widebits.h kernels.
template <int W, class V>
inline Tv<V> wide_eval_chunk(GateType type, const std::uint64_t* const* fr,
                             int nf, int off) {
  const auto ld = [&](int i) {
    return Tv<V>{V::load(fr[i] + off), V::load(fr[i] + W + off)};
  };
  Tv<V> r;
  switch (type) {
    case GateType::kConst0:
      r.v = V::zero();
      r.x = V::zero();
      break;
    case GateType::kConst1:
      r.v = V::ones();
      r.x = V::zero();
      break;
    case GateType::kBuf:
      r = ld(0);
      break;
    case GateType::kNot:
      r = tv_not(ld(0));
      break;
    case GateType::kAnd:
    case GateType::kNand:
      r = ld(0);
      for (int i = 1; i < nf; ++i) r = tv_and(r, ld(i));
      if (type == GateType::kNand) r = tv_not(r);
      break;
    case GateType::kOr:
    case GateType::kNor:
      r = ld(0);
      for (int i = 1; i < nf; ++i) r = tv_or(r, ld(i));
      if (type == GateType::kNor) r = tv_not(r);
      break;
    case GateType::kXor:
      r = tv_xor(ld(0), ld(1));
      break;
    case GateType::kXnor:
      r = tv_not(tv_xor(ld(0), ld(1)));
      break;
    case GateType::kMux:
      r = tv_mux(ld(0), ld(1), ld(2));
      break;
    case GateType::kInput:
    case GateType::kDff:
      assert(false && "wide eval on a source node");
      r.v = V::zero();
      r.x = V::ones();
      break;
  }
  return r;
}

/// Evaluates one gate row (W lanes-of-64) into `out`.
template <int W, class V>
inline void wide_eval_row(GateType type, const std::uint64_t* const* fr,
                          int nf, std::uint64_t* out) {
  static_assert(W % V::kWords == 0, "backend width must divide the row");
  constexpr int kChunks = W / V::kWords;
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    const Tv<V> r = wide_eval_chunk<W, V>(type, fr, nf, off);
    r.v.store(out + off);
    r.x.store(out + W + off);
  }
}

/// Evaluates one gate row, returning whether the result differs from
/// `old` (the node's previous faulty-machine row) and storing it to `dst`
/// only when it does. This is the per-event hot path: the old
/// copy-on-write shape (eval to a temp row, memcmp, memcpy) streamed
/// every row through memory three extra times; here the row lives in
/// registers while the diff accumulates, and unchanged events — the cone
/// boundary, a large share of all events — never dirty a cache line.
template <int W, class V>
inline bool wide_eval_diff(GateType type, const std::uint64_t* const* fr,
                           int nf, const std::uint64_t* old,
                           std::uint64_t* dst) {
  static_assert(W % V::kWords == 0, "backend width must divide the row");
  constexpr int kChunks = W / V::kWords;
  Tv<V> rs[kChunks];
  V diff = V::zero();
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    rs[c] = wide_eval_chunk<W, V>(type, fr, nf, off);
    diff = diff | (rs[c].v ^ V::load(old + off)) |
           (rs[c].x ^ V::load(old + W + off));
  }
  if (!diff.any()) return false;
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    rs[c].v.store(dst + off);
    rs[c].x.store(dst + W + off);
  }
  return true;
}

/// Loads PI rows for one super-block: lane group w takes `blocks[w]`.
/// Lane groups past blocks.size() (the campaign's last, partial
/// super-block) pad with all-X lanes; three-valued monotonicity makes them
/// inert (an X-input lane can only detect a fault that every real lane
/// also detects, so first-detection attribution stays real).
template <int W, class V>
void wide_set_inputs(const SimGraph& g,
                     std::span<const std::vector<Bits>> blocks,
                     WideGood<W>& good) {
  assert(blocks.size() <= static_cast<std::size_t>(W));
  const std::size_t nn = static_cast<std::size_t>(g.num_nodes());
  good.rows.assign(nn * 2 * W, 0);
  for (std::size_t id = 0; id < nn; ++id) {  // default all lanes to X
    std::uint64_t* rx = &good.rows[id * 2 * W + W];
    for (int w = 0; w < W; ++w) rx[w] = ~0ULL;
  }
  const auto& pis = g.pis();
  for (std::size_t w = 0; w < blocks.size(); ++w) {
    const std::size_t known = std::min(pis.size(), blocks[w].size());
    for (std::size_t i = 0; i < known; ++i) {
      std::uint64_t* r = &good.rows[static_cast<std::size_t>(pis[i]) * 2 * W];
      r[w] = blocks[w][i].v;
      r[W + w] = blocks[w][i].x;
    }
  }
}

/// Full good simulation of the preset rows (one levelized pass).
template <int W, class V>
void wide_simulate_good(const SimGraph& g, WideGood<W>& good) {
  const std::uint64_t* frp[kMaxFanin];
  const std::int32_t* foff = g.fanin_off();
  const std::int32_t* fin = g.fanin();
  for (const std::int32_t id : g.order()) {
    const GateType t = g.type(id);
    if (t == GateType::kInput || t == GateType::kDff) continue;
    const std::int32_t lo = foff[id];
    const int nf = foff[id + 1] - lo;
    assert(nf <= kMaxFanin);
    for (int i = 0; i < nf; ++i)
      frp[i] = &good.rows[static_cast<std::size_t>(fin[lo + i]) * 2 * W];
    wide_eval_row<W, V>(t, frp, nf,
                        &good.rows[static_cast<std::size_t>(id) * 2 * W]);
  }
}

/// Per-worker fault-propagation scratch: injects one fault against a
/// super-block's shared good rows and propagates only its divergence.
/// Faulty rows are copy-on-write — a node reads as good until touched in
/// the current epoch, so starting the next fault is one epoch bump — and
/// scheduled nodes sit in per-level worklists drained in one ascending
/// pass (fanouts are strictly deeper). Combinational SimGraphs only. One
/// instance per worker slot; cache-line aligned because PpsfpShard keeps
/// the instances back to back and each worker bumps its own counters on
/// every propagation.
template <int W, class V>
class alignas(64) WideProp {
 public:
  explicit WideProp(const SimGraph& g) : g_(&g) {
    const std::size_t nn = static_cast<std::size_t>(g.num_nodes());
    frows_.assign(nn * 2 * W, 0);
    stamp_.assign(nn, -1);
    sched_stamp_.assign(nn, -1);
    po_stamp_.assign(nn, -1);
    lvl_stamp_.assign(g.num_levels(), -1);
    lvl_nodes_.resize(g.num_levels());
  }

  /// One fault against the whole super-block: out_mask[w] is the detecting
  /// lane mask of the super-block's w-th 64-lane block.
  void propagate(const Fault& f, const WideGood<W>& good,
                 std::uint64_t* out_mask) {
    ++faults_;
    const long before = events_;
    begin(good);
    inject(f);
    drain(f.node);
    last_events_ = events_ - before;
    po_diff(out_mask);
  }

  long events() const { return events_; }
  long faults() const { return faults_; }
  long last_events() const { return last_events_; }
  void reset_work_counters() {
    events_ = 0;
    faults_ = 0;
    last_events_ = 0;
  }

 private:
  /// Current faulty-machine row of `id`: its copy-on-write row when touched
  /// this epoch, the shared good row otherwise.
  const std::uint64_t* row(int id) const {
    return stamp_[id] == cur_ ? &frows_[static_cast<std::size_t>(id) * 2 * W]
                              : good_->row(id);
  }

  void begin(const WideGood<W>& good) {
    good_ = &good;
    if (cur_ == std::numeric_limits<int>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), -1);
      std::fill(sched_stamp_.begin(), sched_stamp_.end(), -1);
      std::fill(po_stamp_.begin(), po_stamp_.end(), -1);
      std::fill(lvl_stamp_.begin(), lvl_stamp_.end(), -1);
      cur_ = 0;
    }
    ++cur_;
    min_lvl_ = g_->num_levels();
    max_lvl_ = -1;
    touched_pos_.clear();
  }

  void schedule_fanouts(int id) {
    const std::int32_t* foff = g_->fanout_off();
    const std::int32_t* fo = g_->fanout();
    const std::int32_t* level_of = g_->level_of();
    const std::int32_t end = foff[id + 1];
    for (std::int32_t k = foff[id]; k < end; ++k) {
      const int s = fo[k];
      if (sched_stamp_[s] == cur_) continue;
      sched_stamp_[s] = cur_;
      // The sweep reaches `s` strictly later (deeper level); start pulling
      // its good row in now so the eval doesn't stall on it. A W=1 row is
      // 16 bytes — the prefetch costs more than the miss it hides.
      if constexpr (W > 1) {
        const std::uint64_t* gr = good_->row(s);
        __builtin_prefetch(gr);
        __builtin_prefetch(gr + W);
      }
      const int lvl = level_of[s];
      if (lvl_stamp_[lvl] != cur_) {
        lvl_stamp_[lvl] = cur_;
        lvl_nodes_[lvl].clear();
        if (lvl < min_lvl_) min_lvl_ = lvl;
        if (lvl > max_lvl_) max_lvl_ = lvl;
      }
      lvl_nodes_[lvl].push_back(s);
    }
  }

  /// Marks `id` as diverged this epoch: stamp, PO bookkeeping, fanouts.
  void touch(int id) {
    stamp_[id] = cur_;
    if ((g_->flags()[id] & SimGraph::kFlagPo) && po_stamp_[id] != cur_) {
      po_stamp_[id] = cur_;
      touched_pos_.push_back(id);
    }
    schedule_fanouts(id);
  }

  /// Overwrites node `id`'s row with `srow` (output-fault injection; once
  /// per fault, so the memcmp shape is fine here).
  void force(int id, const std::uint64_t* srow) {
    if (std::memcmp(row(id), srow, sizeof(std::uint64_t) * 2 * W) == 0)
      return;
    std::memcpy(&frows_[static_cast<std::size_t>(id) * 2 * W], srow,
                sizeof(std::uint64_t) * 2 * W);
    touch(id);
  }

  /// Re-evaluates node `id` with fanin pin `pin` (or -1: none) overridden
  /// to the `srow` row, directly into its copy-on-write row.
  void eval_node(int id, int pin, const std::uint64_t* srow) {
    const std::uint64_t* frp[kMaxFanin];
    const std::int32_t* fin = g_->fanin();
    const std::int32_t lo = g_->fanin_off()[id];
    const int nf = g_->fanin_off()[id + 1] - lo;
    assert(nf <= kMaxFanin);
    for (int i = 0; i < nf; ++i)
      frp[i] = i == pin ? srow : row(fin[lo + i]);
    std::uint64_t* dst = &frows_[static_cast<std::size_t>(id) * 2 * W];
    const std::uint64_t* old = stamp_[id] == cur_ ? dst : good_->row(id);
    if (wide_eval_diff<W, V>(g_->type(id), frp, nf, old, dst)) touch(id);
  }

  void inject(const Fault& f) {
    assert(g_->type(f.node) != GateType::kDff && "combinational only");
    // The faulted pin/node row: stuck value in every lane, nothing unknown.
    std::uint64_t srow[2 * W];
    for (int w = 0; w < W; ++w) {
      srow[w] = f.stuck_at_one ? ~0ULL : 0;
      srow[W + w] = 0;
    }
    if (f.fanin_index < 0)
      force(f.node, srow);
    else
      eval_node(f.node, f.fanin_index, srow);
  }

  void drain([[maybe_unused]] int site) {
    // Scheduled nodes sit in per-level worklists (no scanning a level's
    // position span for the few scheduled entries — cones here are small
    // and the holes would dominate). A level's list is complete once the
    // sweep reaches it: scheduling only ever targets deeper levels. For
    // the same reason the fault site is never scheduled: a combinational
    // node is not its own fanout, so inject() has set its row for good.
    for (int lvl = min_lvl_; lvl <= max_lvl_; ++lvl) {
      if (lvl_stamp_[lvl] != cur_) continue;
      for (const int id : lvl_nodes_[lvl]) {
        ++events_;
        assert(id != site && "fault site rescheduled");
        eval_node(id, -1, nullptr);
      }
    }
  }

  void po_diff(std::uint64_t* out) const {
    for (int w = 0; w < W; ++w) out[w] = 0;
    for (const int id : touched_pos_) {
      const std::uint64_t* gr = good_->row(id);
      const std::uint64_t* br = &frows_[static_cast<std::size_t>(id) * 2 * W];
      for (int w = 0; w < W; ++w)
        out[w] |= (gr[w] ^ br[w]) & ~gr[W + w] & ~br[W + w];
    }
  }

  const SimGraph* g_;
  const WideGood<W>* good_ = nullptr;
  std::vector<std::uint64_t> frows_;  ///< copy-on-write rows, 2W words/node
  std::vector<int> stamp_, sched_stamp_, po_stamp_;
  int cur_ = 0;
  std::vector<int> lvl_stamp_;
  std::vector<std::vector<int>> lvl_nodes_;  ///< scheduled ids per level
  int min_lvl_ = 0, max_lvl_ = -1;
  std::vector<int> touched_pos_;
  long events_ = 0, faults_ = 0, last_events_ = 0;
};

/// The one PPSFP shard loop, shared by every lane width and entry point:
/// a good-machine pass over one super-block (up to W 64-lane blocks), then
/// every live fault propagated once across all of it, the fault list
/// spread over the worker pool with chunked work-stealing. Holds one
/// propagator per worker slot, grown on demand and reused across passes.
template <int W, class V>
class PpsfpShard {
 public:
  explicit PpsfpShard(const SimGraph& g) : g_(&g) {}

  /// Grades `faults` against `blocks` (at most W; lane groups past the end
  /// are X). masks[i * W + w] receives fault i's detecting lane mask in
  /// block w — 0 where skip[i] is set (fault dropping). Records each
  /// propagation's effort in the ledger and publishes the pass's
  /// faultsim.ppsfp.* work counters.
  void grade(std::span<const std::vector<Bits>> blocks,
             const std::vector<Fault>& faults, const std::vector<bool>* skip,
             int threads, std::vector<std::uint64_t>& masks) {
    wide_set_inputs<W, V>(*g_, blocks, good_);
    wide_simulate_good<W, V>(*g_, good_);
    const int count = static_cast<int>(faults.size());
    masks.assign(static_cast<std::size_t>(count) * W, 0);
    if (count == 0) return;
    const int workers = std::min(threads, count);
    while (static_cast<int>(props_.size()) < std::max(workers, 1))
      props_.emplace_back(*g_);

    const bool ledger_on = observe::ledger_enabled();
    auto job = [&](int i, int slot) {
      if (skip && (*skip)[i]) return;
      WideProp<W, V>& p = props_[slot];
      p.propagate(faults[i], good_, &masks[static_cast<std::size_t>(i) * W]);
      if (ledger_on)
        observe::record_sim_effort(observe::make_fault_key(faults[i]),
                                   p.last_events());
    };
    if (workers <= 1) {
      for (int i = 0; i < count; ++i) job(i, 0);
    } else {
      util::ThreadPool::shared().run_chunked(count, workers, kPpsfpStealChunk,
                                             job);
    }

    // Publish the pass's work off the hot path — worker counters are
    // stable once run_chunked() has returned.
    static util::Counter& m_events =
        util::metrics().counter("faultsim.ppsfp.events");
    static util::Counter& m_sims =
        util::metrics().counter("faultsim.ppsfp.faults_simulated");
    long events = 0, done = 0;
    for (WideProp<W, V>& p : props_) {
      events += p.events();
      done += p.faults();
      p.reset_work_counters();
    }
    m_events.add(events);
    m_sims.add(done);
  }

  /// Good-machine rows of the last grade() pass.
  const WideGood<W>& good() const { return good_; }

 private:
  const SimGraph* g_;
  WideGood<W> good_;
  std::vector<WideProp<W, V>> props_;  ///< one per worker slot
};

/// One campaign over all blocks, W blocks per pass. Drop mode when
/// `detected` is given (fault dropping plus ledger detect events, exactly
/// the serial first-detection attribution); matrix mode when `matrix` is
/// given (no dropping, every block's lane mask recorded).
template <int W, class V>
void wide_campaign(const Netlist& n,
                   const std::vector<std::vector<Bits>>& blocks,
                   const std::vector<Fault>& faults,
                   const FaultSimOptions& options, std::vector<bool>* detected,
                   std::vector<std::uint64_t>* matrix) {
  if (!n.flops().empty())
    throw std::runtime_error(
        "PPSFP fault sim is combinational; expand state as PI/PO first");
  const std::size_t nb = blocks.size();
  if (nb == 0) return;
  const int count = static_cast<int>(faults.size());
  const std::size_t nsuper = (nb + W - 1) / W;
  PpsfpShard<W, V> shard(SimGraph::of(n));  // lowered before workers fan out
  std::vector<std::uint64_t> block_masks;
  const bool ledger_on = observe::ledger_enabled();
  long newly = 0;
  for (std::size_t s = 0; s < nsuper; ++s) {
    const std::size_t real = std::min<std::size_t>(W, nb - s * W);
    shard.grade(std::span(blocks).subspan(s * W, real), faults, detected,
                options.resolved_threads(), block_masks);
    if (detected) {
      const long pattern_base = 64 * static_cast<long>(s * W);
      for (int i = 0; i < count; ++i) {
        if ((*detected)[i]) continue;
        const std::uint64_t* mw =
            &block_masks[static_cast<std::size_t>(i) * W];
        for (int w = 0; w < W; ++w) {
          if (mw[w] == 0) continue;
          (*detected)[i] = true;
          ++newly;
          if (ledger_on)
            observe::record_detected(
                observe::make_fault_key(faults[i]),
                pattern_base + 64 * w + std::countr_zero(mw[w]));
          break;
        }
      }
    }
    if (matrix) {
      for (int i = 0; i < count; ++i) {
        const std::uint64_t* mw =
            &block_masks[static_cast<std::size_t>(i) * W];
        std::uint64_t* row = &(*matrix)[static_cast<std::size_t>(i) * nb];
        for (std::size_t w = 0; w < real; ++w) row[s * W + w] = mw[w];
      }
    }
    // Live progress after each good-machine pass, not once at the end, so
    // heartbeats see pattern-grained advance inside long campaigns.
    static util::Progress& p_patterns = util::progress("sim.patterns");
    p_patterns.add(64 * static_cast<std::int64_t>(real));
  }

  util::metrics().counter("faultsim.ppsfp.blocks").add(static_cast<long>(nb));
  util::metrics().counter("faultsim.ppsfp.faults_detected").add(newly);
  util::metrics()
      .counter("faultsim.wide.super_blocks")
      .add(static_cast<long>(nsuper));
  util::metrics().gauge("faultsim.wide.lanes").set(64 * W);
}

/// One sequential_fault_sim call as the slot engine sees it: shared
/// read-only inputs, the cursor every worker claims faults from, and the
/// per-fault results (each entry written only by the worker that
/// simulated the fault).
struct SeqJob {
  const SimGraph* g = nullptr;
  const std::vector<std::vector<Bits>>* frames = nullptr;
  const std::vector<Fault>* faults = nullptr;
  /// D-pin driver of each flip-flop (g->ffs() order); -1 = unconnected.
  std::vector<std::int32_t> d_of;
  /// Good-machine PO values, frame-major, g->pos().size() per frame.
  std::vector<Bits> good_po;
  /// Indices of the faults to simulate, in claim order.
  std::vector<std::int32_t> todo;
  std::atomic<std::size_t> next{0};  ///< next todo entry to claim
  /// Per fault: frames simulated, and whether the last of them detected.
  std::vector<std::int32_t> frames_run;
  std::vector<char> hit;
};

/// Fault-slot-parallel sequential simulation, PROOFS' idea (Niermann,
/// Cheng and Patel, TCAD 1992) at word rather than bit granularity: the
/// 64 bits of a word already carry 64 input sequences, so word w of every
/// node row is one faulty machine with its own fault, frame index and
/// carried flip-flop state. One levelized sweep advances all W machines
/// by one frame; a slot whose fault is detected or out of frames takes
/// the next fault from the job's shared cursor. Each fault therefore
/// runs exactly the frames the per-fault loop would. One instance per
/// worker, cache-line aligned like WideProp.
template <int W, class V>
class alignas(64) SeqSlots {
  static_assert(W <= 8, "slot masks are one byte");

 public:
  explicit SeqSlots(SeqJob& job) : job_(job), g_(*job.g) {
    rows_.assign(static_cast<std::size_t>(g_.num_nodes()) * 2 * W, 0);
    state_.resize(g_.ffs().size() * 2 * W);
    at_site_.assign(static_cast<std::size_t>(g_.num_nodes()), 0);
  }

  /// Simulates faults from the cursor until it runs dry.
  void run() {
    for (int w = 0; w < W; ++w) claim(w);
    while (busy_ != 0) sweep();
  }

 private:
  std::uint64_t* row(int id) {
    return &rows_[static_cast<std::size_t>(id) * 2 * W];
  }

  /// Puts the next unclaimed fault in slot w, or empties the slot.
  void claim(int w) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << w);
    const std::size_t k = job_.next.fetch_add(1, std::memory_order_relaxed);
    if (k >= job_.todo.size()) {
      busy_ &= static_cast<std::uint8_t>(~bit);
      return;
    }
    const int fi = job_.todo[k];
    fault_[w] = fi;
    frame_[w] = 0;
    busy_ |= bit;
    at_site_[(*job_.faults)[fi].node] |= bit;
    for (std::size_t i = 0; i < g_.ffs().size(); ++i) {  // state starts X
      state_[i * 2 * W + w] = 0;
      state_[i * 2 * W + W + w] = ~0ULL;
    }
  }

  /// Records slot w's result and frees its fault site.
  void finish(int w, bool hit) {
    const int fi = fault_[w];
    job_.frames_run[fi] = frame_[w];
    job_.hit[fi] = hit;
    at_site_[(*job_.faults)[fi].node] &=
        static_cast<std::uint8_t>(~(1u << w));
    static util::Progress& p_seq = util::progress("sim.seq.faults");
    p_seq.add(1);
  }

  /// Overrides the words of the slots whose fault sits on node `id`: an
  /// output fault pins the stuck value, a pin fault re-evaluates the row
  /// with that fanin stuck and keeps the slot's word. The re-evaluation
  /// goes through the <W, V> row kernel, not eval_gate, so no non-template
  /// inline function is compiled with this TU's ISA flags.
  void inject(int id) {
    std::uint64_t* r = row(id);
    for (unsigned m = at_site_[id]; m != 0; m &= m - 1) {
      const int w = std::countr_zero(m);
      const Fault& f = (*job_.faults)[fault_[w]];
      std::uint64_t stuck[2 * W];
      std::fill(stuck, stuck + W, f.stuck_at_one ? ~0ULL : 0);
      std::fill(stuck + W, stuck + 2 * W, 0);
      if (f.fanin_index < 0) {
        r[w] = stuck[w];
        r[W + w] = 0;
        continue;
      }
      const std::uint64_t* frp[kMaxFanin];
      const std::int32_t lo = g_.fanin_off()[id];
      const int nf = g_.fanin_off()[id + 1] - lo;
      for (int i = 0; i < nf; ++i) frp[i] = row(g_.fanin()[lo + i]);
      frp[f.fanin_index] = stuck;
      std::uint64_t out[2 * W];
      wide_eval_row<W, V>(g_.type(id), frp, nf, out);
      r[w] = out[w];
      r[W + w] = out[W + w];
    }
  }

  /// One clock frame of every occupied slot.
  void sweep() {
    const std::vector<std::int32_t>& pis = g_.pis();
    const std::vector<std::int32_t>& ffs = g_.ffs();
    // Sources: each slot's PI words from its own frame (missing PIs and
    // empty slots read X), the flip-flops from the carried state.
    for (int w = 0; w < W; ++w) {
      const std::vector<Bits>* in =
          busy_ >> w & 1 ? &(*job_.frames)[frame_[w]] : nullptr;
      const std::size_t known = in ? std::min(pis.size(), in->size()) : 0;
      for (std::size_t i = 0; i < pis.size(); ++i) {
        const Bits b = i < known ? (*in)[i] : Bits::unknown();
        std::uint64_t* r = row(pis[i]);
        r[w] = b.v;
        r[W + w] = b.x;
      }
    }
    for (std::size_t i = 0; i < ffs.size(); ++i)
      std::memcpy(row(ffs[i]), &state_[i * 2 * W],
                  sizeof(std::uint64_t) * 2 * W);

    // Evaluate, each slot's fault applied where it sits (sources too).
    const std::uint64_t* frp[kMaxFanin];
    const std::int32_t* foff = g_.fanin_off();
    const std::int32_t* fin = g_.fanin();
    for (const std::int32_t id : g_.order()) {
      const GateType t = g_.type(id);
      if (t != GateType::kInput && t != GateType::kDff) {
        const std::int32_t lo = foff[id];
        const int nf = foff[id + 1] - lo;
        assert(nf <= kMaxFanin);
        for (int i = 0; i < nf; ++i) frp[i] = row(fin[lo + i]);
        wide_eval_row<W, V>(t, frp, nf, row(id));
      }
      if (at_site_[id] != 0) inject(id);
    }

    // Capture every slot's next state, then detect, drop and refill.
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      std::uint64_t* s = &state_[i * 2 * W];
      const std::int32_t d = job_.d_of[i];
      if (d >= 0) {
        std::memcpy(s, row(d), sizeof(std::uint64_t) * 2 * W);
      } else {
        std::fill(s, s + W, 0);
        std::fill(s + W, s + 2 * W, ~0ULL);
      }
    }
    const std::vector<std::int32_t>& pos = g_.pos();
    const std::size_t num_frames = job_.frames->size();
    for (int w = 0; w < W; ++w) {
      if (!(busy_ >> w & 1)) continue;
      const Bits* good =
          &job_.good_po[static_cast<std::size_t>(frame_[w]) * pos.size()];
      std::uint64_t diff = 0;
      for (std::size_t k = 0; k < pos.size(); ++k) {
        const std::uint64_t* r = row(pos[k]);
        diff |= (good[k].v ^ r[w]) & ~good[k].x & ~r[W + w];
      }
      ++frame_[w];
      if (diff != 0 || static_cast<std::size_t>(frame_[w]) == num_frames) {
        finish(w, diff != 0);
        claim(w);
      }
    }
  }

  SeqJob& job_;
  const SimGraph& g_;
  std::vector<std::uint64_t> rows_;   ///< 2W words per node
  std::vector<std::uint64_t> state_;  ///< 2W words per flip-flop
  /// Per node: the slots whose fault sits on it.
  std::vector<std::uint8_t> at_site_;
  int fault_[W] = {};
  std::int32_t frame_[W] = {};
  std::uint8_t busy_ = 0;  ///< occupied slots
};

/// Runs a sequential job on `workers` threads, each with its own SeqSlots
/// draining the shared cursor. The engines are built on the calling
/// thread before the pool fans out, as PpsfpShard builds its propagators.
template <int W, class V>
void seq_slots(SeqJob& job, int workers) {
  std::vector<SeqSlots<W, V>> slots;
  slots.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) slots.emplace_back(job);
  auto work = [&](int i, int) { slots[i].run(); };
  if (workers <= 1)
    work(0, 0);
  else
    util::ThreadPool::shared().run(workers, workers, work);
}

// Per-ISA entry points, defined in faultsim_avx2.cpp / faultsim_avx512.cpp
// when the build compiled them (TSYN_WIDE_AVX2 / TSYN_WIDE_AVX512). Only
// call after active_simd_backend() confirms the CPU has the ISA.
void wide_campaign_avx2_w8(const Netlist& n,
                           const std::vector<std::vector<Bits>>& blocks,
                           const std::vector<Fault>& faults,
                           const FaultSimOptions& options,
                           std::vector<bool>* detected,
                           std::vector<std::uint64_t>* matrix);
void wide_campaign_avx512_w8(const Netlist& n,
                             const std::vector<std::vector<Bits>>& blocks,
                             const std::vector<Fault>& faults,
                             const FaultSimOptions& options,
                             std::vector<bool>* detected,
                             std::vector<std::uint64_t>* matrix);
void seq_slots_avx2_w8(SeqJob& job, int workers);
void seq_slots_avx512_w8(SeqJob& job, int workers);

}  // namespace tsyn::gl::wide_detail
