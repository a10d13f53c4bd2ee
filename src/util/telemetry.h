// Live telemetry: progress counters and JSONL heartbeats, streamed from
// a background sampler thread while a run is in flight.
//
// Everything else in the observability stack (metrics, trace spans, the
// fault ledger, run reports) is post-mortem — nothing is visible until
// the process exits. Heartbeats answer the one live question "what is the
// run doing now, and how far along is it?":
//
//  * Progress counters — phase-scoped (done, total) pairs such as
//    "sim.patterns" or "atpg.targets". add() is one relaxed load plus (when
//    telemetry is on) one wait-free striped atomic add, the same hot-path
//    contract as util::Counter and the ledger. Off by default; a disabled
//    add() is a single relaxed atomic load.
//
//  * Heartbeats — a background thread wakes every interval_ms and appends
//    one self-contained JSON object per line (JSONL) to a file or stderr:
//    schema version, sequence number, monotonic elapsed time, current
//    phase, every progress counter with an EWMA rate and ETA, and the
//    merged counter/gauge snapshot of the metrics registry. Each line is
//    flushed as written, so the stream survives a crash of the host
//    process.
//
// Heartbeat line schema (version 1):
//   {"schema":1,"type":"heartbeat","seq":3,"t_ms":752.1,"phase":"atpg",
//    "progress":[{"name":"atpg.targets","done":120,"total":482,
//                 "delta":40,"rate_per_s":160.4,"eta_ms":2256.9}, ...],
//    "counters":{...},"gauges":{...}}
// `total` is clamped to at least `done` (some producers learn their totals
// late); `eta_ms` is null until a nonzero rate is observed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace tsyn::util {

namespace detail {
extern std::atomic<bool> g_progress_enabled;
}  // namespace detail

/// True while progress counters record. Enabled by telemetry_start() (and
/// directly by tests/benches via progress_enable()).
inline bool progress_enabled() {
  return detail::g_progress_enabled.load(std::memory_order_relaxed);
}
void progress_enable();
void progress_disable();

/// A (done, total) pair for one unit of pipeline work. Producers call
/// add_total() when they learn how much work exists and add() as they
/// finish it; both are no-ops while progress is disabled, so the counts
/// always cover one telemetry session, not process history.
class Progress {
 public:
  void add(std::int64_t n = 1) {
    if (!progress_enabled()) return;
    done_[detail::thread_stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void add_total(std::int64_t n) {
    if (!progress_enabled()) return;
    total_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t done() const {
    std::int64_t t = 0;
    for (const auto& c : done_) t += c.v.load(std::memory_order_relaxed);
    return t;
  }
  std::int64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  friend void progress_reset();
  detail::StripedCell done_[kMetricStripes];
  std::atomic<std::int64_t> total_{0};
};

/// Stable handle for `name`, created on first use and alive for the
/// process — cache it at the call site like a metrics handle:
///   static util::Progress& p = util::progress("sim.patterns");
Progress& progress(const std::string& name);

/// One merged progress row, as reported in heartbeats.
struct ProgressRow {
  std::string name;
  std::int64_t done = 0;
  std::int64_t total = 0;
};

/// Sorted-by-name snapshot of every registered progress counter.
std::vector<ProgressRow> progress_snapshot();

/// Zeroes done and total on every registered counter (handles stay valid).
void progress_reset();

/// Labels subsequent heartbeats with the pipeline phase ("synth", "atpg",
/// "report", ...). Must be a string literal or otherwise outlive the run.
void telemetry_set_phase(const char* phase);
const char* telemetry_phase();

// -- shared stderr writer ----------------------------------------------------
//
// A heartbeat stream pointed at "-" writes from the sampler thread while
// the command's own report and errors may reach stderr from the main
// thread. Each heartbeat line goes through this mutex-guarded writer as
// one fwrite + fflush: one call, one contiguous byte range on the stream.

/// Writes `[data, data+len)` to stderr as one unit (single fwrite +
/// fflush under a process-wide mutex).
void stderr_write(const char* data, std::size_t len);
inline void stderr_write(const std::string& s) {
  stderr_write(s.data(), s.size());
}

struct TelemetryOptions {
  /// Heartbeat JSONL destination: a file path, "-" for stderr, or empty
  /// for no stream (lines are still counted).
  std::string heartbeat_path;
  int interval_ms = 250;  ///< heartbeat cadence
};

/// Enables progress counters and starts the sampler thread. Creates parent
/// directories for heartbeat_path. Returns false (and starts nothing) if
/// the heartbeat destination cannot be opened. At most one telemetry
/// session runs at a time; a second start while active fails.
bool telemetry_start(const TelemetryOptions& opts);

/// Emits a final heartbeat, stops the thread, closes the stream, and
/// disables progress counters. Safe to call when not active.
void telemetry_stop();
bool telemetry_active();

/// Heartbeat lines emitted by the current/most recent session. For tests
/// and the overhead bench.
long telemetry_heartbeat_count();

// -- crash flush -------------------------------------------------------------

/// Registers `flush` to run at normal exit (std::atexit) and on fatal
/// signals (SEGV/ABRT/FPE/ILL/BUS/INT/TERM), at most once, so --trace /
/// --metrics artifacts survive a crash or an operator Ctrl-C
/// instead of being silently lost. The handler then restores the default
/// disposition and re-raises, preserving the exit status. Signal-context
/// execution is best-effort (the flushers allocate and take locks — fine
/// for ABRT/INT/TERM, usually fine for a crash, never worse than losing
/// the artifacts). Calling again replaces the flush callback.
void install_crash_flush(std::function<void()> flush);

/// Marks the artifacts as already written by the normal shutdown path, so
/// the atexit pass does not overwrite them.
void disarm_crash_flush();

}  // namespace tsyn::util
