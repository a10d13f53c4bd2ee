// Small string and file utilities shared by the CDFG parser, the report
// writers and the command-line tools.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace tsyn::util {

/// Splits on any of the delimiter characters; empty tokens are dropped.
std::vector<std::string> split(std::string_view text, std::string_view delims);

/// Removes leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Reads the whole file at `path` into `*out`. Returns false if it cannot
/// be opened.
bool read_file(const std::string& path, std::string* out);

/// Replaces the file at `path` with `text`. Returns false on any failure.
bool write_file(const std::string& path, const std::string& text);

/// `v` as "%.6g", with ".0" appended when that prints no '.', 'e' or 'E',
/// so a JSON consumer always sees a float: the report emitters' format.
std::string fmt_double(double v);

namespace text_detail {
inline void put(std::string& out, std::string_view s) { out += s; }
inline void put(std::string& out, char c) { out += c; }
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}
}  // namespace text_detail

/// Appends each part in order: strings and chars as they are, integers in
/// decimal via std::to_chars (the digits `std::ostream <<` prints), so a
/// writer builds its output in one string without a stream.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (text_detail::put(out, parts), ...);
}

}  // namespace tsyn::util
