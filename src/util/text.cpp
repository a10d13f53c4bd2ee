#include "util/text.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace tsyn::util {

std::vector<std::string> split(std::string_view text,
                               std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    const std::size_t stop = (end == std::string_view::npos) ? text.size()
                                                             : end;
    if (stop > start) out.emplace_back(text.substr(start, stop - start));
    start = stop + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  std::string s(buf);
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

}  // namespace tsyn::util
