#include "observe/ledger.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "util/json.h"
#include "util/text.h"

namespace tsyn::observe {

#ifndef TSYN_LEDGER_NOOP

namespace detail {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_phase{0};

}  // namespace detail

namespace {

using detail::Event;
using detail::kEvDetected;
using detail::kEvNDetect;
using detail::kEvSeqDetected;
using detail::kEvSimEffort;
using detail::kEvTargeted;

struct LedgerState {
  std::mutex mu;
  /// One event buffer per recording thread, registered on first use and
  /// kept alive for the process lifetime — the util/trace buffer pattern.
  /// Only the owning thread appends; readers run between parallel
  /// sections.
  std::vector<std::shared_ptr<std::vector<Event>>> buffers;
  std::vector<std::string> phase_names{"run"};
  /// Largest record_universe() per phase, parallel to phase_names.
  std::vector<std::int64_t> universe{0};
};

LedgerState& state() {
  static LedgerState* s = new LedgerState();  // never dtor'd
  return *s;
}

}  // namespace

namespace detail {

std::vector<Event>* acquire_thread_events() {
  auto b = std::make_shared<std::vector<Event>>();
  b->reserve(1024);  // skip the early growth reallocations
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.buffers.push_back(b);
  return b.get();
}

}  // namespace detail

void ledger_enable() {
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void ledger_disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void ledger_reset() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  for (auto& b : s.buffers) b->clear();
  s.phase_names.assign(1, "run");
  s.universe.assign(1, 0);
  detail::g_phase.store(0, std::memory_order_relaxed);
}

std::size_t ledger_event_count() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::size_t n = 0;
  for (const auto& b : s.buffers) n += b->size();
  return n;
}

LedgerPhase::LedgerPhase(const char* name) {
  LedgerState& s = state();
  int id = -1;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (std::size_t i = 0; i < s.phase_names.size(); ++i)
      if (s.phase_names[i] == name) {
        id = static_cast<int>(i);
        break;
      }
    if (id < 0) {
      id = static_cast<int>(s.phase_names.size());
      s.phase_names.emplace_back(name);
      s.universe.push_back(0);
    }
  }
  prev_ = detail::g_phase.exchange(id, std::memory_order_relaxed);
}

LedgerPhase::~LedgerPhase() {
  detail::g_phase.store(prev_, std::memory_order_relaxed);
}

void record_universe(long num_faults) {
  if (!ledger_enabled()) return;
  LedgerState& s = state();
  const int phase = detail::g_phase.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(s.mu);
  auto& u = s.universe[static_cast<std::size_t>(phase)];
  u = std::max(u, static_cast<std::int64_t>(num_faults));
}

#endif  // !TSYN_LEDGER_NOOP

const char* to_string(FaultStatus status) {
  switch (status) {
    case FaultStatus::kDetected: return "detected";
    case FaultStatus::kDropped: return "dropped";
    case FaultStatus::kRedundant: return "redundant";
    case FaultStatus::kAborted: return "aborted";
    case FaultStatus::kUndetected: return "undetected";
  }
  return "?";
}

#ifndef TSYN_LEDGER_NOOP
namespace {

/// The smallest box of fault keys holding every recorded key. The merge
/// indexes a dense table by a key's row-major position in it, (node, pin,
/// sa1) with sa1 fastest, so index order is FaultKey order.
class KeyBox {
 public:
  void extend(const FaultKey& k) {
    lo_.node = std::min(lo_.node, k.node);
    lo_.pin = std::min(lo_.pin, k.pin);
    lo_.sa1 = std::min(lo_.sa1, k.sa1);
    hi_.node = std::max(hi_.node, k.node);
    hi_.pin = std::max(hi_.pin, k.pin);
    hi_.sa1 = std::max(hi_.sa1, k.sa1);
  }
  bool empty() const { return lo_.node > hi_.node; }
  /// Fixes the strides; call after the last extend().
  void close() {
    sas_ = span(lo_.sa1, hi_.sa1);
    pins_ = span(lo_.pin, hi_.pin);
  }
  std::size_t size() const { return span(lo_.node, hi_.node) * pins_ * sas_; }
  std::size_t index(const FaultKey& k) const {
    return (span(lo_.node, k.node) - 1) * pins_ * sas_ +
           (span(lo_.pin, k.pin) - 1) * sas_ + (span(lo_.sa1, k.sa1) - 1);
  }
  FaultKey key(std::size_t index) const {
    FaultKey k;
    k.sa1 = lo_.sa1 + static_cast<std::int32_t>(index % sas_);
    k.pin = lo_.pin + static_cast<std::int32_t>(index / sas_ % pins_);
    k.node = lo_.node + static_cast<std::int32_t>(index / sas_ / pins_);
    return k;
  }

 private:
  static std::size_t span(std::int32_t lo, std::int32_t hi) {
    return static_cast<std::size_t>(static_cast<std::int64_t>(hi) - lo + 1);
  }
  static constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  static constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  FaultKey lo_{kMax, kMax, kMax};
  FaultKey hi_{kMin, kMin, kMin};
  std::size_t pins_ = 0, sas_ = 0;
};

FaultStatus classify(const FaultJourney& j) {
  if (j.outcome_detected > 0) return FaultStatus::kDetected;
  if (j.first_detect_pattern >= 0 || j.first_detect_frame >= 0)
    return FaultStatus::kDropped;
  if (j.outcome_untestable > 0) return FaultStatus::kRedundant;
  if (j.outcome_aborted > 0) return FaultStatus::kAborted;
  return FaultStatus::kUndetected;
}

/// Lexicographic (phase, index) minimum update; `phase` < 0 means unset.
void keep_first(int& phase, std::int64_t& index, int e_phase,
                std::int64_t e_index) {
  if (phase < 0 || e_phase < phase || (e_phase == phase && e_index < index)) {
    phase = e_phase;
    index = e_index;
  }
}

}  // namespace
#endif  // !TSYN_LEDGER_NOOP

LedgerSnapshot ledger_snapshot() {
  LedgerSnapshot out;
#ifndef TSYN_LEDGER_NOOP
  LedgerState& s = state();
  // The merge reads the thread buffers in place. Holding the registry
  // lock throughout costs nothing: nobody records while a snapshot runs
  // (the collect-between-parallel-sections rule).
  std::lock_guard<std::mutex> lk(s.mu);
  out.phases = s.phase_names;
  const auto for_each_event = [&](auto&& fn) {
    for (const auto& b : s.buffers)
      for (const Event& e : *b) fn(e);
  };

  // Pass 1: the key box, and the phase count (a phase id can outlive a
  // ledger_reset() in a LedgerPhase restored afterwards).
  KeyBox box;
  std::size_t num_phases = out.phases.size();
  for_each_event([&](const Event& e) {
    box.extend(e.key);
    num_phases = std::max(num_phases, static_cast<std::size_t>(e.phase) + 1);
  });
  if (box.empty()) return out;
  box.close();

  // Pass 2: mark every key seen, then number the marks in index (= key)
  // order. The journeys come out sorted with no sort.
  std::vector<std::int32_t> slot(box.size(), -1);
  for_each_event([&](const Event& e) { slot[box.index(e.key)] = 0; });
  std::int32_t num_faults = 0;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (slot[i] < 0) continue;
    slot[i] = num_faults++;
    out.journeys.emplace_back().key = box.key(i);
  }

  // Pass 3: aggregate. Every operation is order-insensitive (sum, max,
  // lexicographic min), so the buffer interleaving across thread counts
  // cannot show. Per (phase, fault) first-detect slots feed the
  // waterfalls, phase-major.
  const std::size_t nf = out.journeys.size();
  std::vector<int> seq_phase(nf, -1), ndetect_phase(nf, -1);
  std::vector<std::int64_t> first_pattern(num_phases * nf, -1);
  std::vector<std::int64_t> first_frame(num_phases * nf, -1);
  const auto lower = [](std::int64_t& first, std::int64_t index) {
    if (first < 0 || index < first) first = index;
  };
  for_each_event([&](const Event& e) {
    const std::size_t id =
        static_cast<std::size_t>(slot[box.index(e.key)]);
    FaultJourney& j = out.journeys[id];
    const std::size_t at = static_cast<std::size_t>(e.phase) * nf + id;
    switch (e.kind) {
      case kEvTargeted: {
        ++j.targets;
        j.decisions += e.a;
        j.backtracks += e.b;
        const auto oc = static_cast<TargetOutcome>(e.outcome);
        if (oc == TargetOutcome::kDetected) ++j.outcome_detected;
        else if (oc == TargetOutcome::kUntestable) ++j.outcome_untestable;
        else ++j.outcome_aborted;
        break;
      }
      case kEvDetected:
        keep_first(j.first_detect_phase, j.first_detect_pattern, e.phase,
                   e.a);
        lower(first_pattern[at], e.a);
        break;
      case kEvSeqDetected:
        keep_first(seq_phase[id], j.first_detect_frame, e.phase, e.a);
        lower(first_frame[at], e.a);
        break;
      case kEvSimEffort:
        j.sim_events += e.a;
        break;
      case kEvNDetect:
        // Several phases may grade a detection matrix (pre-prune set,
        // shipped set); keep the latest phase's count, max within a phase.
        if (e.phase > ndetect_phase[id]) {
          ndetect_phase[id] = e.phase;
          j.n_detect = e.a;
        } else if (e.phase == ndetect_phase[id]) {
          j.n_detect = std::max(j.n_detect, e.a);
        }
        break;
    }
  });

  for (FaultJourney& j : out.journeys) {
    j.status = classify(j);
    switch (j.status) {
      case FaultStatus::kDetected: ++out.detected; break;
      case FaultStatus::kDropped: ++out.dropped; break;
      case FaultStatus::kRedundant: ++out.redundant; break;
      case FaultStatus::kAborted: ++out.aborted; break;
      case FaultStatus::kUndetected: ++out.undetected; break;
    }
    out.total_decisions += j.decisions;
    out.total_backtracks += j.backtracks;
    out.total_sim_events += j.sim_events;
  }

  // Waterfalls in (phase, domain) order ("frame" < "pattern"): sort each
  // phase's first detections by index and emit one cumulative point per
  // distinct index.
  std::vector<std::int64_t> indices;
  for (std::size_t phase = 0; phase < num_phases; ++phase) {
    for (const auto& [domain, firsts] :
         {std::pair{"frame", &first_frame},
          std::pair{"pattern", &first_pattern}}) {
      indices.clear();
      for (std::size_t id = 0; id < nf; ++id)
        if (const std::int64_t i = (*firsts)[phase * nf + id]; i >= 0)
          indices.push_back(i);
      if (indices.empty()) continue;
      std::sort(indices.begin(), indices.end());
      Waterfall& w = out.waterfalls.emplace_back();
      w.phase = static_cast<int>(phase);
      if (phase < out.phases.size()) w.phase_name = out.phases[phase];
      w.domain = domain;
      if (phase < s.universe.size()) w.universe = s.universe[phase];
      if (w.universe == 0)
        w.universe = static_cast<std::int64_t>(indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i)
        if (i + 1 == indices.size() || indices[i + 1] != indices[i])
          w.curve.push_back({indices[i], static_cast<std::int64_t>(i) + 1});
    }
  }
#else
  out.phases.emplace_back("run");
#endif  // !TSYN_LEDGER_NOOP
  return out;
}

void append_ledger_json(std::string& out, const LedgerSnapshot& snap) {
  // Integers only — no float formatting to keep the byte-identity
  // contract trivially robust.
  using util::append;
  out += "{\n  \"schema\": 1,\n  \"phases\": [";
  for (std::size_t i = 0; i < snap.phases.size(); ++i)
    append(out, i ? ", \"" : "\"", util::json_escape(snap.phases[i]), '"');
  append(out, "],\n  \"summary\": {\"faults\": ", snap.journeys.size(),
         ", \"detected\": ", snap.detected, ", \"dropped\": ", snap.dropped,
         ", \"redundant\": ", snap.redundant, ", \"aborted\": ", snap.aborted,
         ", \"undetected\": ", snap.undetected,
         ", \"decisions\": ", snap.total_decisions,
         ", \"backtracks\": ", snap.total_backtracks,
         ", \"sim_events\": ", snap.total_sim_events, "},\n",
         "  \"waterfalls\": [");
  for (std::size_t i = 0; i < snap.waterfalls.size(); ++i) {
    const Waterfall& w = snap.waterfalls[i];
    append(out, i ? ",\n    " : "\n    ", "{\"phase\": \"",
           util::json_escape(w.phase_name), "\", \"domain\": \"", w.domain,
           "\", \"universe\": ", w.universe, ", \"curve\": [");
    for (std::size_t p = 0; p < w.curve.size(); ++p)
      append(out, p ? ", " : "", "{\"i\": ", w.curve[p].index,
             ", \"detected\": ", w.curve[p].detected, '}');
    out += "]}";
  }
  append(out, snap.waterfalls.empty() ? "]" : "\n  ]", ",\n  \"faults\": [");
  for (std::size_t i = 0; i < snap.journeys.size(); ++i) {
    const FaultJourney& j = snap.journeys[i];
    append(out, i ? ",\n    " : "\n    ", "{\"node\": ", j.key.node,
           ", \"pin\": ", j.key.pin, ", \"sa\": ", j.key.sa1,
           ", \"status\": \"", to_string(j.status),
           "\", \"targets\": ", j.targets, ", \"decisions\": ", j.decisions,
           ", \"backtracks\": ", j.backtracks,
           ", \"first_detect_pattern\": ", j.first_detect_pattern,
           ", \"first_detect_frame\": ", j.first_detect_frame,
           ", \"n_detect\": ", j.n_detect, ", \"sim_events\": ", j.sim_events,
           '}');
  }
  append(out, snap.journeys.empty() ? "]" : "\n  ]", "\n}\n");
}

std::size_t ledger_json_size_hint(const LedgerSnapshot& snap) {
  // A fault line is about 200 bytes, a curve point about 30.
  std::size_t points = 0;
  for (const Waterfall& w : snap.waterfalls) points += w.curve.size();
  return 512 + 256 * snap.journeys.size() + 40 * points;
}

std::string ledger_to_json(const LedgerSnapshot& snap) {
  std::string out;
  out.reserve(ledger_json_size_hint(snap));
  append_ledger_json(out, snap);
  return out;
}

std::string ledger_to_json() { return ledger_to_json(ledger_snapshot()); }

}  // namespace tsyn::observe
