// Hierarchical scoped-span tracing with Chrome trace_event JSON export.
//
// A Span is an RAII timer: construct it at the top of a stage, and when it
// destructs the (name, start, duration, thread) tuple lands in a
// thread-local buffer. trace_to_json() merges the buffers into the Chrome
// "complete event" ("ph":"X") format, loadable in chrome://tracing or
// Perfetto, where same-thread spans nest by containment — so the
// schedule → binding → datapath → netlist → fault-sim pipeline renders as
// a flame graph, including spans opened inside util::ThreadPool workers
// (each worker is its own track).
//
// Cost model: tracing is off by default; a disabled Span is one relaxed
// atomic load. An enabled Span is two steady_clock reads and a vector
// push_back on a thread-local buffer — no locks, safe in pool workers.
// Buffers are registered once per thread under a mutex and survive thread
// exit until trace_reset(). Collect the JSON only between parallel
// sections (ThreadPool::run's completion handshake makes worker writes
// visible to the caller).
//
// Compile with -DTSYN_TRACE_NOOP (CMake option of the same name) to turn
// spans into empty objects — the baseline the instrumentation-overhead
// acceptance bound is measured against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tsyn::util {

/// Starts collecting spans (clears nothing; pair with trace_reset() for a
/// fresh capture). Cheap to call redundantly.
void trace_enable();
void trace_disable();
bool trace_enabled();

/// Drops every buffered span and re-zeroes the trace clock.
void trace_reset();

/// Chrome trace_event JSON of everything collected so far:
///   {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,
///                    "pid":1,"tid":...}, ...]}
/// ts/dur are microseconds (fractional) from the first trace_enable().
std::string trace_to_json();

/// Writes trace_to_json() to `path`. Returns false on I/O failure.
bool trace_write(const std::string& path);

/// Number of spans buffered (for tests).
std::size_t trace_span_count();

#ifdef TSYN_TRACE_NOOP

class Span {
 public:
  explicit Span(const char* /*name*/) {}
};

#else

class Span {
 public:
  /// `name` must outlive the trace capture (string literals in practice).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr when tracing was off at entry
  std::int64_t start_ns_ = 0;
};

#endif  // TSYN_TRACE_NOOP

}  // namespace tsyn::util

#define TSYN_TRACE_CONCAT2(a, b) a##b
#define TSYN_TRACE_CONCAT(a, b) TSYN_TRACE_CONCAT2(a, b)
/// Scoped span covering the rest of the enclosing block.
#define TSYN_SPAN(name) \
  ::tsyn::util::Span TSYN_TRACE_CONCAT(tsyn_span_, __LINE__)(name)
