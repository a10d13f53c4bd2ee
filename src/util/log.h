// Small leveled structured logger.
//
// One line per event on stderr, machine-greppable:
//   tsyn level=info stage=atpg msg="campaign done" faults=412
// The level gate is a relaxed atomic load, so debug logging in library
// code costs one branch when filtered out. Each line goes out through
// util::stderr_write (one locked fwrite), so concurrent loggers and
// "-"-heartbeats interleave whole lines, never characters.
#pragma once

#include <string>

namespace tsyn::util {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Filter: events with a level above this are dropped. Default kWarn.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Parses "error"|"warn"|"info"|"debug". Returns false on anything else.
bool parse_log_level(const std::string& text, LogLevel* out);

const char* log_level_name(LogLevel level);

/// Emits one structured line. `stage` names the subsystem ("hls",
/// "faultsim", ...); `fmt`/... is a printf payload that lands in
/// msg="..." (quotes in the payload are escaped).
void logf(LogLevel level, const char* stage, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

}  // namespace tsyn::util
