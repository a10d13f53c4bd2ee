#include "util/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "util/telemetry.h"

namespace tsyn::util {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool parse_log_level(const std::string& text, LogLevel* out) {
  if (text == "error") *out = LogLevel::kError;
  else if (text == "warn") *out = LogLevel::kWarn;
  else if (text == "info") *out = LogLevel::kInfo;
  else if (text == "debug") *out = LogLevel::kDebug;
  else return false;
  return true;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

void logf(LogLevel level, const char* stage, const char* fmt, ...) {
  if (static_cast<int>(level) > g_level.load(std::memory_order_relaxed))
    return;

  char payload[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(payload, sizeof payload, fmt, args);
  va_end(args);

  char line[640];
  int n = std::snprintf(line, sizeof line, "tsyn level=%s stage=%s msg=\"",
                        log_level_name(level), stage);
  for (const char* p = payload; *p && n < static_cast<int>(sizeof line) - 3;
       ++p) {
    if (*p == '"' || *p == '\\') line[n++] = '\\';
    line[n++] = *p == '\n' ? ' ' : *p;
  }
  line[n++] = '"';
  line[n++] = '\n';
  // Through the shared stderr writer so log lines and "-"-heartbeats
  // interleave whole-line, never sheared.
  stderr_write(line, static_cast<std::size_t>(n));
}

}  // namespace tsyn::util
