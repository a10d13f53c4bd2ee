#include "util/telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "util/json.h"

namespace tsyn::util {

namespace detail {
std::atomic<bool> g_progress_enabled{false};
}  // namespace detail

void progress_enable() {
  detail::g_progress_enabled.store(true, std::memory_order_relaxed);
}

void progress_disable() {
  detail::g_progress_enabled.store(false, std::memory_order_relaxed);
}

namespace {

struct ProgressRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Progress>> rows;
};

ProgressRegistry& progress_registry() {
  static ProgressRegistry* r = new ProgressRegistry();  // never dtor'd
  return *r;
}

std::atomic<const char*> g_phase{"run"};

double now_ms() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

Progress& progress(const std::string& name) {
  ProgressRegistry& r = progress_registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.rows[name];
  if (!slot) slot = std::make_unique<Progress>();
  return *slot;
}

std::vector<ProgressRow> progress_snapshot() {
  ProgressRegistry& r = progress_registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<ProgressRow> out;
  out.reserve(r.rows.size());
  for (const auto& [name, p] : r.rows)
    out.push_back({name, p->done(), p->total()});
  return out;  // std::map iteration is already name-sorted
}

void progress_reset() {
  ProgressRegistry& r = progress_registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& [name, p] : r.rows) {
    for (auto& c : p->done_) c.v.store(0, std::memory_order_relaxed);
    p->total_.store(0, std::memory_order_relaxed);
  }
}

void telemetry_set_phase(const char* phase) {
  g_phase.store(phase, std::memory_order_relaxed);
}

const char* telemetry_phase() {
  return g_phase.load(std::memory_order_relaxed);
}

namespace {
std::mutex& stderr_mu() {
  static std::mutex* mu = new std::mutex();  // leaked: usable during exit
  return *mu;
}
}  // namespace

void stderr_write(const char* data, std::size_t len) {
  std::lock_guard<std::mutex> lk(stderr_mu());
  std::fwrite(data, 1, len, stderr);
  std::fflush(stderr);
}

namespace {

/// Per-progress-row rate tracking between heartbeats.
struct RowState {
  std::int64_t last_done = 0;
  double rate_per_s = 0.0;  ///< EWMA, 0 until first observed advance
};

struct TelemetrySession {
  TelemetryOptions opts;
  std::FILE* stream = nullptr;  ///< nullptr when no heartbeat destination
  bool owns_stream = false;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;

  double start_ms = 0.0;
  long seq = 0;
  double last_t_ms = 0.0;  ///< t_ms of the previous heartbeat
  std::map<std::string, RowState> row_state;
};

TelemetrySession* g_session = nullptr;  // guarded by g_session_mu
std::mutex g_session_mu;
std::atomic<long> g_heartbeats{0};

/// One heartbeat line.
void emit_heartbeat(TelemetrySession& s, double t_ms) {
  // dt for rate estimation: time since the previous heartbeat.
  const double dt_ms = s.seq == 0 ? t_ms : t_ms - s.last_t_ms;

  std::string line = "{\"schema\":1,\"type\":\"heartbeat\",\"seq\":";
  line += std::to_string(s.seq);
  line += ",\"t_ms\":";
  append_double(line, t_ms);
  line += ",\"phase\":\"";
  line += json_escape(telemetry_phase());
  line += "\",\"progress\":[";
  bool first = true;
  for (const ProgressRow& row : progress_snapshot()) {
    RowState& st = s.row_state[row.name];
    // Some producers learn totals late (e.g. tests graded against blocks
    // not pre-registered); never report total < done.
    const std::int64_t total = std::max(row.total, row.done);
    const std::int64_t delta = row.done - st.last_done;
    if (dt_ms > 0.0) {
      const double inst = static_cast<double>(delta) / (dt_ms / 1e3);
      st.rate_per_s =
          st.rate_per_s == 0.0 ? inst : 0.7 * st.rate_per_s + 0.3 * inst;
    }
    if (!first) line += ',';
    first = false;
    line += "{\"name\":\"";
    line += json_escape(row.name);
    line += "\",\"done\":";
    line += std::to_string(row.done);
    line += ",\"total\":";
    line += std::to_string(total);
    line += ",\"delta\":";
    line += std::to_string(delta);
    line += ",\"rate_per_s\":";
    append_double(line, st.rate_per_s);
    line += ",\"eta_ms\":";
    if (st.rate_per_s > 0.0 && total > row.done) {
      append_double(line,
                    static_cast<double>(total - row.done) / st.rate_per_s * 1e3);
    } else {
      line += "null";
    }
    line += '}';
    st.last_done = row.done;
  }
  line += ']';
  const MetricsSnapshot m = metrics().snapshot();
  line += ",\"counters\":{";
  first = true;
  for (const auto& [name, v] : m.counters) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += json_escape(name);
    line += "\":";
    line += std::to_string(v);
  }
  line += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : m.gauges) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += json_escape(name);
    line += "\":";
    append_double(line, v);
  }
  line += "}}\n";

  s.last_t_ms = t_ms;
  ++s.seq;
  ++g_heartbeats;
  if (s.stream == stderr) {
    stderr_write(line);  // one contiguous write: never sheared
  } else if (s.stream) {
    std::fwrite(line.data(), 1, line.size(), s.stream);
    std::fflush(s.stream);  // each line must survive a crash
  }
}

void sampler_loop(TelemetrySession& s) {
  const auto interval =
      std::chrono::milliseconds(std::max(1, s.opts.interval_ms));
  std::unique_lock<std::mutex> lk(s.mu);
  while (!s.cv.wait_for(lk, interval, [&] { return s.stop; })) {
    lk.unlock();
    emit_heartbeat(s, now_ms() - s.start_ms);
    lk.lock();
  }
  lk.unlock();
  emit_heartbeat(s, now_ms() - s.start_ms);  // final state, always
}

}  // namespace

bool telemetry_start(const TelemetryOptions& opts) {
  std::lock_guard<std::mutex> lk(g_session_mu);
  if (g_session) return false;

  auto s = std::make_unique<TelemetrySession>();
  s->opts = opts;
  if (!opts.heartbeat_path.empty()) {
    if (opts.heartbeat_path == "-") {
      s->stream = stderr;
    } else {
      std::error_code ec;
      const auto parent =
          std::filesystem::path(opts.heartbeat_path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent, ec);
      s->stream = std::fopen(opts.heartbeat_path.c_str(), "w");
      if (!s->stream) return false;
      s->owns_stream = true;
    }
  }
  g_heartbeats.store(0, std::memory_order_relaxed);
  progress_enable();
  s->start_ms = now_ms();
  TelemetrySession& ref = *s;
  s->thread = std::thread([&ref] { sampler_loop(ref); });
  g_session = s.release();
  return true;
}

void telemetry_stop() {
  TelemetrySession* s;
  {
    std::lock_guard<std::mutex> lk(g_session_mu);
    s = g_session;
    g_session = nullptr;
  }
  if (!s) return;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->stop = true;
  }
  s->cv.notify_all();
  s->thread.join();
  if (s->owns_stream) std::fclose(s->stream);
  progress_disable();
  delete s;
}

bool telemetry_active() {
  std::lock_guard<std::mutex> lk(g_session_mu);
  return g_session != nullptr;
}

long telemetry_heartbeat_count() {
  return g_heartbeats.load(std::memory_order_relaxed);
}

// -- crash flush -------------------------------------------------------------

namespace {

std::atomic<bool> g_flush_done{false};
/// Leaked on purpose: a signal handler must never race a destructor.
std::function<void()>* g_flush_fn = nullptr;
std::mutex g_flush_mu;

void run_crash_flush() {
  bool expected = false;
  if (!g_flush_done.compare_exchange_strong(expected, true)) return;
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lk(g_flush_mu);
    if (g_flush_fn) fn = *g_flush_fn;
  }
  if (fn) fn();
}

extern "C" void crash_flush_signal_handler(int sig) {
  // Not async-signal-safe in the strict sense (the flushers allocate and
  // take locks); acceptable for ABRT/INT/TERM and usually fine for a
  // crash — never worse than silently losing the artifacts.
  run_crash_flush();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_crash_flush(std::function<void()> flush) {
  {
    std::lock_guard<std::mutex> lk(g_flush_mu);
    if (!g_flush_fn) g_flush_fn = new std::function<void()>();
    *g_flush_fn = std::move(flush);
  }
  g_flush_done.store(false, std::memory_order_relaxed);
  static bool installed = [] {
    std::atexit(run_crash_flush);
    const int sigs[] = {SIGSEGV, SIGABRT, SIGFPE, SIGILL, SIGINT, SIGTERM,
#ifdef SIGBUS
                        SIGBUS,
#endif
    };
    for (int sig : sigs) std::signal(sig, crash_flush_signal_handler);
    return true;
  }();
  (void)installed;
}

void disarm_crash_flush() {
  g_flush_done.store(true, std::memory_order_relaxed);
}

}  // namespace tsyn::util
