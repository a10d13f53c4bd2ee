// bench_diff — gate a fresh BENCH_*.json against a checked-in baseline.
//
//   bench_diff BASELINE.json NEW.json [options]
//     --no-time              skip *_ms fields entirely
//     --time-tolerance=PCT   allowed *_ms growth in percent (default 50)
//     --tolerance=V          absolute slack for quality values (default 1e-9)
//     --allow-missing        missing rows/fields are notes, not failures
//     --quiet                print regressions only
//
// Exit codes: 0 = no regressions, 1 = regressions found, 2 = unusable
// inputs (parse failure, schema/seed mismatch, bad usage).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "observe/bench_diff.h"
#include "util/json.h"
#include "util/text.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json NEW.json [--no-time]"
               " [--time-tolerance=PCT] [--tolerance=V] [--allow-missing]"
               " [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, fresh_path;
  tsyn::observe::BenchDiffOptions opts;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-time") {
      opts.check_time = false;
    } else if (arg.rfind("--time-tolerance=", 0) == 0) {
      opts.time_tolerance_pct = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      opts.value_tolerance = std::atof(arg.c_str() + 12);
    } else if (arg == "--allow-missing") {
      opts.allow_missing = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (fresh_path.empty()) return usage(argv[0]);

  std::string base_text, fresh_text;
  if (!tsyn::util::read_file(base_path, &base_text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", base_path.c_str());
    return 2;
  }
  if (!tsyn::util::read_file(fresh_path, &fresh_text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", fresh_path.c_str());
    return 2;
  }

  tsyn::util::Json base, fresh;
  try {
    base = tsyn::util::Json::parse(base_text);
  } catch (const tsyn::util::JsonParseError& e) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", base_path.c_str(), e.what());
    return 2;
  }
  try {
    fresh = tsyn::util::Json::parse(fresh_text);
  } catch (const tsyn::util::JsonParseError& e) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", fresh_path.c_str(), e.what());
    return 2;
  }

  const tsyn::observe::BenchDiffResult res =
      tsyn::observe::diff_bench_json(base, fresh, opts);
  if (!res.schema_ok) {
    std::fprintf(stderr, "bench_diff: %s\n", res.schema_error.c_str());
    return 2;
  }
  const std::string text = tsyn::observe::diff_result_to_text(
      res, quiet, base_path + " vs " + fresh_path);
  std::fputs(text.c_str(), res.regressions.empty() ? stdout : stderr);
  return res.regressions.empty() ? 0 : 1;
}
