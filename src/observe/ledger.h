// Fault-lifecycle ledger: per-fault journey recording across the whole
// test-generation pipeline.
//
// The PR 2 metrics registry answers "how much total effort"; the ledger
// answers "which fault got it". Every engine that touches a fault posts an
// event — PODEM posts targeted(outcome, decisions, backtracks), the PPSFP
// detection loop posts detected(pattern index), the sequential engine
// posts seq_detected(frame), the propagation kernel posts sim_effort(gate
// events), and the compaction detection matrix posts n_detect(count).
// Reading the ledger merges the events into one journey per fault
// (targeted -> detected / dropped / redundant / aborted), plus per-phase
// coverage-waterfall curves (cumulative first-detections vs. pattern or
// frame index).
//
// Concurrency and determinism contract: recording appends to a
// thread-striped lock-free buffer (a thread_local vector, registered once
// under a mutex exactly like util/trace's span buffers), so pool workers
// record without synchronization. The merge aggregates with
// order-insensitive operations only — sums for effort, lexicographic
// (phase, index) minima for first detections, per-phase maxima for
// n-detect — so ledger_to_json() is byte-identical at any thread count
// for a deterministic workload. Collect only between parallel sections
// (ThreadPool::run's completion handshake orders worker writes before the
// caller's read), the same rule the trace layer has.
//
// Cost model: a disabled record is one relaxed atomic load and a branch.
// An enabled one is a push_back of a 40-byte event. ledger_snapshot()
// reads the thread buffers in place, three times, with no copy and no
// sort of the events: once for the box of fault keys seen, once to mark
// each key in a dense int32 table indexed row-major by (node, pin, sa1)
// over that box — index order is FaultKey order, so numbering the marks
// in index order hands out journey slots already sorted — and once to
// aggregate into the journeys and into per-phase first-detect slots for
// the waterfalls. Time is linear in the event count plus the box size;
// extra memory is 4 bytes per box cell (keys are netlist node ids, so the
// box is about nodes x (widest fanin + 2) x 2) plus 16 bytes per journey
// and phase. ledger_to_json() appends to one reserved string.
// Compile with -DTSYN_LEDGER_NOOP (CMake option of the same name) to
// compile recording out entirely — the baseline the ledger-overhead
// acceptance bound in BENCH_faultsim.json is measured against.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tsyn::observe {

/// Identity of a stuck-at fault, mirroring gl::Fault field-for-field
/// (node, fanin pin with -1 = output fault, stuck polarity) without
/// depending on the gatelevel library — the ledger sits below it.
struct FaultKey {
  std::int32_t node = -1;
  std::int32_t pin = -1;
  std::int32_t sa1 = 0;
  friend bool operator==(const FaultKey&, const FaultKey&) = default;
  friend auto operator<=>(const FaultKey&, const FaultKey&) = default;
};

/// How one PODEM run on a fault ended.
enum class TargetOutcome : std::uint8_t {
  kDetected = 0,
  kUntestable = 1,
  kAborted = 2,
};

#ifdef TSYN_LEDGER_NOOP

// Compile-time no-op path: ledger_enabled() folds to false so engine
// wiring (`if (observe::ledger_enabled()) record_...`) dead-codes away.
inline void ledger_enable() {}
inline void ledger_disable() {}
inline constexpr bool ledger_enabled() { return false; }
inline void ledger_reset() {}
inline std::size_t ledger_event_count() { return 0; }

class LedgerPhase {
 public:
  explicit LedgerPhase(const char* /*name*/) {}
  LedgerPhase(const LedgerPhase&) = delete;
  LedgerPhase& operator=(const LedgerPhase&) = delete;
};

inline void record_targeted(const FaultKey&, TargetOutcome, long /*decisions*/,
                            long /*backtracks*/) {}
inline void record_detected(const FaultKey&, long /*pattern*/) {}
inline void record_seq_detected(const FaultKey&, long /*frame*/) {}
inline void record_sim_effort(const FaultKey&, long /*events*/) {}
inline void record_ndetect(const FaultKey&, long /*count*/) {}
inline void record_universe(long /*num_faults*/) {}

#else

// -- recording internals (header-inline so the hot path costs a relaxed
// load, a TLS read, and a push_back — the engines record one event per
// live fault per pattern block, so an out-of-line call per event shows up
// as whole percents of PPSFP wall-clock) ------------------------------------

namespace detail {

enum EventKind : std::uint8_t {
  kEvTargeted = 0,
  kEvDetected = 1,
  kEvSeqDetected = 2,
  kEvSimEffort = 3,
  kEvNDetect = 4,
};

struct Event {
  FaultKey key;
  std::uint8_t kind = 0;
  std::uint8_t outcome = 0;  ///< TargetOutcome, kEvTargeted only
  std::int32_t phase = 0;
  std::int64_t a = 0;  ///< pattern / frame / events / count / decisions
  std::int64_t b = 0;  ///< backtracks (kEvTargeted)
};

/// Process-wide switches (defined in ledger.cpp). Read relaxed on the hot
/// path; written serially by enable/disable and LedgerPhase.
extern std::atomic<bool> g_enabled;
extern std::atomic<int> g_phase;

/// Slow path, once per thread: registers this thread's event buffer with
/// the global registry and returns it. The registry keeps every buffer
/// alive for the process lifetime, so the pointer never dangles.
std::vector<Event>* acquire_thread_events();

inline std::vector<Event>& thread_events() {
  thread_local std::vector<Event>* events = acquire_thread_events();
  return *events;
}

inline void push(const FaultKey& key, std::uint8_t kind, std::uint8_t outcome,
                 std::int64_t a, std::int64_t b) {
  thread_events().push_back(
      Event{key, kind, outcome, g_phase.load(std::memory_order_relaxed), a, b});
}

}  // namespace detail

// -- runtime switch ---------------------------------------------------------

void ledger_enable();
void ledger_disable();
inline bool ledger_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
/// Drops every buffered event, phase registration, and recorded universe.
void ledger_reset();
/// Buffered event count (for tests and overhead sanity checks).
std::size_t ledger_event_count();

// -- phases -----------------------------------------------------------------

/// Sets the current phase for subsequently recorded events and restores
/// the previous phase on destruction. Phase names are interned on first
/// use (intern order defines phase ids — keep registration serial, which
/// the pipeline's phase scoping already guarantees). The default phase is
/// "run". Nesting is fine; recording from worker threads while a phase
/// scope is open on the spawning thread attributes to that phase.
class LedgerPhase {
 public:
  explicit LedgerPhase(const char* name);
  ~LedgerPhase();
  LedgerPhase(const LedgerPhase&) = delete;
  LedgerPhase& operator=(const LedgerPhase&) = delete;

 private:
  int prev_ = 0;
};

// -- recording --------------------------------------------------------------

/// One PODEM attempt on the fault (primary target or secondary probe) with
/// the search effort it spent.
inline void record_targeted(const FaultKey& key, TargetOutcome outcome,
                            long decisions, long backtracks) {
  if (!ledger_enabled()) return;
  detail::push(key, detail::kEvTargeted, static_cast<std::uint8_t>(outcome),
       decisions, backtracks);
}
/// The fault was detected by pattern `pattern` (64*block + lane) in a
/// combinational grading pass.
inline void record_detected(const FaultKey& key, long pattern) {
  if (!ledger_enabled()) return;
  detail::push(key, detail::kEvDetected, 0, pattern, 0);
}
/// The fault was detected at frame `frame` (1-based) by the sequential
/// engine.
inline void record_seq_detected(const FaultKey& key, long frame) {
  if (!ledger_enabled()) return;
  detail::push(key, detail::kEvSeqDetected, 0, frame, 0);
}
/// Gate-evaluation events one propagation of the fault cost.
inline void record_sim_effort(const FaultKey& key, long events) {
  if (!ledger_enabled()) return;
  detail::push(key, detail::kEvSimEffort, 0, events, 0);
}
/// How many patterns of a graded set detect the fault (detection matrix).
/// When several phases grade, the snapshot keeps the latest phase's count.
inline void record_ndetect(const FaultKey& key, long count) {
  if (!ledger_enabled()) return;
  detail::push(key, detail::kEvNDetect, 0, count, 0);
}
/// Size of the fault universe the current phase grades against (for
/// waterfall coverage denominators). Call from serial code.
void record_universe(long num_faults);

#endif  // TSYN_LEDGER_NOOP

// -- reading ----------------------------------------------------------------

/// Where a fault's journey ended, first matching rule wins.
enum class FaultStatus : std::uint8_t {
  kDetected,    ///< a targeted run returned kDetected
  kDropped,     ///< never successfully targeted, but a grading pass
                ///< detected it (fault dropping / secondary credit)
  kRedundant,   ///< proven untestable, never detected
  kAborted,     ///< targeting hit the backtrack limit, never detected
  kUndetected,  ///< simulated (or merely enumerated) without detection
};

/// "detected", "dropped", "redundant", "aborted" or "undetected": the
/// spelling of the ledger JSON's "status" field.
const char* to_string(FaultStatus status);

/// One fault's merged journey.
struct FaultJourney {
  FaultKey key;
  FaultStatus status = FaultStatus::kUndetected;
  int targets = 0;  ///< PODEM attempts (probes included)
  int outcome_detected = 0, outcome_untestable = 0, outcome_aborted = 0;
  std::int64_t decisions = 0, backtracks = 0;  ///< summed over attempts
  /// First combinational detection, as (phase, pattern) lexicographic
  /// minimum over detect events; -1 when never detected in pattern domain.
  /// Pattern and frame indices are >= 0.
  std::int64_t first_detect_pattern = -1;
  int first_detect_phase = -1;
  /// First sequential detection frame (1-based); -1 when none.
  std::int64_t first_detect_frame = -1;
  /// Detection-matrix n-detect count from the latest recording phase; -1
  /// when no matrix graded this fault.
  std::int64_t n_detect = -1;
  std::int64_t sim_events = 0;  ///< summed propagation effort
};

/// One phase's coverage-accrual curve: cumulative first-detections by
/// ascending pattern (or frame) index. Monotone by construction.
struct Waterfall {
  int phase = 0;
  std::string phase_name;
  /// "pattern" (combinational grading) or "frame" (sequential sim).
  std::string domain;
  /// Fault universe recorded for the phase (largest record_universe call),
  /// or the phase's distinct detected count when none was recorded.
  std::int64_t universe = 0;
  struct Point {
    std::int64_t index = 0;     ///< pattern/frame index
    std::int64_t detected = 0;  ///< cumulative distinct faults detected
  };
  std::vector<Point> curve;
};

/// Deterministic merged view of everything recorded.
struct LedgerSnapshot {
  std::vector<std::string> phases;    ///< by phase id
  std::vector<FaultJourney> journeys; ///< sorted by key
  std::vector<Waterfall> waterfalls;  ///< sorted by (phase, domain)
  // Summary counts over journeys.
  std::int64_t detected = 0, dropped = 0, redundant = 0, aborted = 0,
               undetected = 0;
  std::int64_t total_decisions = 0, total_backtracks = 0,
               total_sim_events = 0;
};

LedgerSnapshot ledger_snapshot();

/// The snapshot as one JSON object — the determinism contract's artifact:
///   {"schema": 1, "phases": [...],
///    "summary": {"faults":N,"detected":..,...},
///    "waterfalls": [{"phase":"...","domain":"pattern","universe":N,
///                    "curve":[{"i":P,"detected":C},...]}, ...],
///    "faults": [{"node":..,"pin":..,"sa":..,"status":"...",...}, ...]}
/// Byte-identical across thread counts for deterministic workloads.
std::string ledger_to_json();
std::string ledger_to_json(const LedgerSnapshot& snap);
/// Appends ledger_to_json(snap) to `out` (how report_to_json embeds it
/// without a copy).
void append_ledger_json(std::string& out, const LedgerSnapshot& snap);
/// An upper estimate of that JSON's length, for reserving.
std::size_t ledger_json_size_hint(const LedgerSnapshot& snap);

}  // namespace tsyn::observe
