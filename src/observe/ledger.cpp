#include "observe/ledger.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "util/json.h"

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

#ifndef TSYN_LEDGER_NOOP
namespace {

/// Per-journey aggregation scratch beyond the public FaultJourney fields.
struct Agg {
  FaultJourney j;
  int ndetect_phase = -1;
  int seq_phase = -1;
};

void classify(FaultJourney& j) {
  if (j.outcome_detected > 0) j.status = "detected";
  else if (j.first_detect_pattern >= 0 || j.first_detect_frame >= 0)
    j.status = "dropped";
  else if (j.outcome_untestable > 0) j.status = "redundant";
  else if (j.outcome_aborted > 0) j.status = "aborted";
  else j.status = "undetected";
}

}  // namespace
#endif  // !TSYN_LEDGER_NOOP

LedgerSnapshot ledger_snapshot() {
  LedgerSnapshot out;
#ifndef TSYN_LEDGER_NOOP
  LedgerState& s = state();
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    out.phases = s.phase_names;
    std::size_t total = 0;
    for (const auto& b : s.buffers) total += b->size();
    events.reserve(total);
    for (const auto& b : s.buffers)
      events.insert(events.end(), b->begin(), b->end());
  }

  // Merge into one journey per fault. Every aggregation below is
  // order-insensitive (sum / min / max / lexicographic min), so the
  // arbitrary buffer interleaving across thread counts cannot show.
  std::map<FaultKey, Agg> by_fault;
  // Per (phase, fault): earliest detecting pattern/frame, for waterfalls.
  std::map<std::pair<int, FaultKey>, std::int64_t> first_pattern;
  std::map<std::pair<int, FaultKey>, std::int64_t> first_frame;
  for (const Event& e : events) {
    Agg& a = by_fault[e.key];
    a.j.key = e.key;
    switch (e.kind) {
      case kEvTargeted: {
        ++a.j.targets;
        a.j.decisions += e.a;
        a.j.backtracks += e.b;
        const auto oc = static_cast<TargetOutcome>(e.outcome);
        if (oc == TargetOutcome::kDetected) ++a.j.outcome_detected;
        else if (oc == TargetOutcome::kUntestable) ++a.j.outcome_untestable;
        else ++a.j.outcome_aborted;
        break;
      }
      case kEvDetected: {
        if (a.j.first_detect_phase < 0 || e.phase < a.j.first_detect_phase ||
            (e.phase == a.j.first_detect_phase &&
             e.a < a.j.first_detect_pattern)) {
          a.j.first_detect_phase = e.phase;
          a.j.first_detect_pattern = e.a;
        }
        auto [it, fresh] =
            first_pattern.try_emplace({e.phase, e.key}, e.a);
        if (!fresh) it->second = std::min(it->second, e.a);
        break;
      }
      case kEvSeqDetected: {
        if (a.seq_phase < 0 || e.phase < a.seq_phase ||
            (e.phase == a.seq_phase && e.a < a.j.first_detect_frame)) {
          a.seq_phase = e.phase;
          a.j.first_detect_frame = e.a;
        }
        auto [it, fresh] = first_frame.try_emplace({e.phase, e.key}, e.a);
        if (!fresh) it->second = std::min(it->second, e.a);
        break;
      }
      case kEvSimEffort:
        a.j.sim_events += e.a;
        break;
      case kEvNDetect:
        // Several phases may grade a detection matrix (pre-prune set,
        // shipped set); keep the latest phase's count, max within a phase.
        if (e.phase > a.ndetect_phase) {
          a.ndetect_phase = e.phase;
          a.j.n_detect = e.a;
        } else if (e.phase == a.ndetect_phase) {
          a.j.n_detect = std::max(a.j.n_detect, e.a);
        }
        break;
    }
  }

  out.journeys.reserve(by_fault.size());
  for (auto& [key, agg] : by_fault) {
    classify(agg.j);
    if (agg.j.status == "detected") ++out.detected;
    else if (agg.j.status == "dropped") ++out.dropped;
    else if (agg.j.status == "redundant") ++out.redundant;
    else if (agg.j.status == "aborted") ++out.aborted;
    else ++out.undetected;
    out.total_decisions += agg.j.decisions;
    out.total_backtracks += agg.j.backtracks;
    out.total_sim_events += agg.j.sim_events;
    out.journeys.push_back(std::move(agg.j));
  }

  // Waterfalls: per phase and domain, sort the per-fault first detections
  // by index and emit one cumulative point per distinct index.
  auto build = [&](const std::map<std::pair<int, FaultKey>, std::int64_t>&
                       firsts,
                   const char* domain) {
    std::map<int, std::vector<std::int64_t>> per_phase;
    for (const auto& [pk, index] : firsts)
      per_phase[pk.first].push_back(index);
    for (auto& [phase, indices] : per_phase) {
      std::sort(indices.begin(), indices.end());
      Waterfall w;
      w.phase = phase;
      w.phase_name = out.phases[static_cast<std::size_t>(phase)];
      w.domain = domain;
      {
        std::lock_guard<std::mutex> lk(s.mu);
        w.universe = s.universe[static_cast<std::size_t>(phase)];
      }
      if (w.universe == 0)
        w.universe = static_cast<std::int64_t>(indices.size());
      std::int64_t cum = 0;
      for (std::size_t i = 0; i < indices.size(); ++i) {
        ++cum;
        if (i + 1 < indices.size() && indices[i + 1] == indices[i]) continue;
        w.curve.push_back({indices[i], cum});
      }
      out.waterfalls.push_back(std::move(w));
    }
  };
  build(first_pattern, "pattern");
  build(first_frame, "frame");
  std::sort(out.waterfalls.begin(), out.waterfalls.end(),
            [](const Waterfall& a, const Waterfall& b) {
              return a.phase != b.phase ? a.phase < b.phase
                                        : a.domain < b.domain;
            });
#else
  out.phases.emplace_back("run");
#endif  // !TSYN_LEDGER_NOOP
  return out;
}

std::string ledger_to_json(const LedgerSnapshot& snap) {
  // Integers only — no float formatting to keep the byte-identity
  // contract trivially robust.
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"phases\": [";
  for (std::size_t i = 0; i < snap.phases.size(); ++i) {
    if (i) os << ", ";
    os << '"' << util::json_escape(snap.phases[i]) << '"';
  }
  os << "],\n  \"summary\": {\"faults\": " << snap.journeys.size()
     << ", \"detected\": " << snap.detected
     << ", \"dropped\": " << snap.dropped
     << ", \"redundant\": " << snap.redundant
     << ", \"aborted\": " << snap.aborted
     << ", \"undetected\": " << snap.undetected
     << ", \"decisions\": " << snap.total_decisions
     << ", \"backtracks\": " << snap.total_backtracks
     << ", \"sim_events\": " << snap.total_sim_events << "},\n"
     << "  \"waterfalls\": [";
  for (std::size_t i = 0; i < snap.waterfalls.size(); ++i) {
    const Waterfall& w = snap.waterfalls[i];
    os << (i ? ",\n    " : "\n    ") << "{\"phase\": \""
       << util::json_escape(w.phase_name) << '"';
    os << ", \"domain\": \"" << w.domain << "\", \"universe\": " << w.universe
       << ", \"curve\": [";
    for (std::size_t p = 0; p < w.curve.size(); ++p) {
      if (p) os << ", ";
      os << "{\"i\": " << w.curve[p].index
         << ", \"detected\": " << w.curve[p].detected << "}";
    }
    os << "]}";
  }
  os << (snap.waterfalls.empty() ? "]" : "\n  ]") << ",\n  \"faults\": [";
  for (std::size_t i = 0; i < snap.journeys.size(); ++i) {
    const FaultJourney& j = snap.journeys[i];
    os << (i ? ",\n    " : "\n    ") << "{\"node\": " << j.key.node
       << ", \"pin\": " << j.key.pin << ", \"sa\": " << j.key.sa1
       << ", \"status\": \"" << j.status << "\", \"targets\": " << j.targets
       << ", \"decisions\": " << j.decisions
       << ", \"backtracks\": " << j.backtracks
       << ", \"first_detect_pattern\": " << j.first_detect_pattern
       << ", \"first_detect_frame\": " << j.first_detect_frame
       << ", \"n_detect\": " << j.n_detect
       << ", \"sim_events\": " << j.sim_events << "}";
  }
  os << (snap.journeys.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::string ledger_to_json() { return ledger_to_json(ledger_snapshot()); }

}  // namespace tsyn::observe
