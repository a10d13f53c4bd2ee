#include "util/trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace tsyn::util {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanEvent {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

/// Owned jointly by its thread (thread_local shared_ptr) and the global
/// registry, so spans recorded by pool workers survive until export even
/// if a thread exits. Only the owning thread writes `events`; readers run
/// between parallel sections (see trace.h).
struct ThreadBuffer {
  int tid;
  std::vector<SpanEvent> events;
};

struct TraceState {
  std::atomic<bool> enabled{false};  ///< a disabled Span is one relaxed load
  std::atomic<std::int64_t> epoch_ns{0};
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // never dtor'd
  return *s;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

void trace_enable() {
  TraceState& s = state();
  std::int64_t expected = 0;
  s.epoch_ns.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() {
  state().enabled.store(false, std::memory_order_relaxed);
}

bool trace_enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void trace_reset() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  for (auto& b : s.buffers) b->events.clear();
  s.epoch_ns.store(0, std::memory_order_relaxed);
}

std::size_t trace_span_count() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::size_t n = 0;
  for (const auto& b : s.buffers) n += b->events.size();
  return n;
}

std::string trace_to_json() {
  TraceState& s = state();
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  std::lock_guard<std::mutex> lk(s.mu);
  const std::int64_t epoch = s.epoch_ns.load(std::memory_order_relaxed);
  bool first = true;
  for (const auto& b : s.buffers) {
    for (const SpanEvent& e : b->events) {
      if (!first) os << ",\n";
      first = false;
      // Chrome wants microseconds; keep nanosecond precision as fractions.
      os << "{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"ts\":"
         << static_cast<double>(e.start_ns - epoch) / 1e3
         << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3
         << ",\"pid\":1,\"tid\":" << b->tid << "}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

bool trace_write(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << trace_to_json();
  return static_cast<bool>(out);
}

#ifndef TSYN_TRACE_NOOP

Span::Span(const char* name) {
  if (!state().enabled.load(std::memory_order_relaxed)) return;
  name_ = name;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!name_) return;
  const std::int64_t end = now_ns();
  local_buffer().events.push_back({name_, start_ns_, end - start_ns_});
}

#endif  // TSYN_TRACE_NOOP

}  // namespace tsyn::util
