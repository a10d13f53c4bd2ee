#include "observe/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <string>

namespace tsyn::observe {

namespace {

using util::Json;

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// How a leaf field is judged, decided purely from its key name.
enum class FieldClass {
  kSkip,          ///< environment-dependent, ignore
  kIdentity,      ///< workload identity: must match exactly
  kLowerWorse,    ///< quality: fresh < base - tol is a regression
  kHigherWorse,   ///< cost count: fresh > base + tol is a regression
  kTime,          ///< *_ms: fresh may grow by time_tolerance_pct
  kInfo,          ///< differences are notes only
};

FieldClass classify(const std::string& key) {
  if (key == "hardware_concurrency" || key == "threads_used" ||
      key == "timestamp")
    return FieldClass::kSkip;
  // Derived from times; they drift whenever times drift.
  if (contains(key, "speedup") || ends_with(key, "overhead_pct"))
    return FieldClass::kInfo;
  if (ends_with(key, "_ms")) return FieldClass::kTime;
  if (contains(key, "coverage") || contains(key, "efficiency") ||
      contains(key, "reduction") || key == "detected" ||
      key.rfind("at_least", 0) == 0)
    return FieldClass::kLowerWorse;
  if (key.rfind("patterns", 0) == 0 || key.rfind("tdv_bits", 0) == 0 ||
      key == "cubes" || key == "topup")
    return FieldClass::kHigherWorse;
  if (key == "gates" || key == "faults" || key == "frames" ||
      key == "blocks" || key == "width" || key == "pis")
    return FieldClass::kIdentity;
  return FieldClass::kInfo;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

struct Differ {
  const BenchDiffOptions& opts;
  BenchDiffResult& out;

  void fail(const std::string& path, const std::string& msg) {
    out.regressions.push_back(path + ": " + msg);
  }
  void note(const std::string& path, const std::string& msg) {
    out.notes.push_back(path + ": " + msg);
  }

  void diff_number(const std::string& path, const std::string& key, double b,
                   double f) {
    const double tol = opts.value_tolerance;
    if (std::abs(b - f) <= tol) return;
    const std::string delta =
        "base=" + fmt_num(b) + " new=" + fmt_num(f);
    switch (classify(key)) {
      case FieldClass::kSkip:
        return;
      case FieldClass::kIdentity:
        fail(path, delta + " (workload identity changed)");
        return;
      case FieldClass::kLowerWorse:
        if (f < b - tol)
          fail(path, delta + " (quality dropped)");
        else
          note(path, delta + " (improved)");
        return;
      case FieldClass::kHigherWorse:
        if (f > b + tol)
          fail(path, delta + " (count grew)");
        else
          note(path, delta + " (improved)");
        return;
      case FieldClass::kTime: {
        if (!opts.check_time) return;
        const double limit = b * (1.0 + opts.time_tolerance_pct / 100.0);
        if (f > limit && f - b > tol)
          fail(path, delta + " (slower than +" +
                         fmt_num(opts.time_tolerance_pct) + "% tolerance)");
        else
          note(path, delta);
        return;
      }
      case FieldClass::kInfo:
        note(path, delta);
        return;
    }
  }

  void diff_value(const std::string& path, const std::string& key,
                  const Json& b, const Json& f) {
    // Whole subtrees that are observability payloads, not benchmark
    // results.
    if (key == "metrics" || key == "ledger") return;
    if (classify(key) == FieldClass::kSkip) return;
    if (b.type != f.type) {
      // A null on either side is a skip marker — the bench decided the
      // measurement is meaningless in that environment (e.g.
      // "parallel_ms": null on a single-core host) rather than timing
      // noise dressed up as data. A skipped measurement is never a
      // regression; only workload identity may not flip to null.
      if (b.type == Json::Type::kNull || f.type == Json::Type::kNull) {
        if (classify(key) == FieldClass::kIdentity)
          fail(path, "null vs value (workload identity changed)");
        else
          note(path, b.type == Json::Type::kNull
                         ? "unmeasured in baseline, measured in new run"
                         : "measured in baseline, skipped in new run");
        return;
      }
      fail(path, "type changed");
      return;
    }
    switch (b.type) {
      case Json::Type::kNumber:
        diff_number(path, key, b.number, f.number);
        return;
      case Json::Type::kString:
        if (b.str != f.str) {
          if (key == "circuit" || key == "fill" || key == "case")
            fail(path, "\"" + b.str + "\" vs \"" + f.str +
                           "\" (workload identity changed)");
          else
            note(path, "\"" + b.str + "\" vs \"" + f.str + "\"");
        }
        return;
      case Json::Type::kBool:
        if (b.boolean != f.boolean) note(path, "bool changed");
        return;
      case Json::Type::kNull:
        return;
      case Json::Type::kArray:
        diff_array(path, b, f);
        return;
      case Json::Type::kObject:
        diff_object(path, b, f);
        return;
    }
  }

  /// Array rows carry a name under one of these keys; matched rows diff
  /// field-by-field, nameless arrays diff index-wise.
  static const Json* row_name(const Json& row) {
    if (!row.is_object()) return nullptr;
    for (const char* k : {"circuit", "fill", "case"}) {
      const Json* v = row.find(k);
      if (v && v->is_string()) return v;
    }
    return nullptr;
  }

  static bool failed(const Json& row) {
    const Json* status = row.find("status");
    return status && status->is_string() && status->str == "failed";
  }

  void diff_array(const std::string& path, const Json& b, const Json& f) {
    const bool named = !b.arr.empty() && row_name(b.arr.front()) != nullptr;
    if (!named) {
      if (b.arr.size() != f.arr.size()) {
        note(path, "array length " + std::to_string(b.arr.size()) + " vs " +
                       std::to_string(f.arr.size()));
      }
      const std::size_t n = std::min(b.arr.size(), f.arr.size());
      for (std::size_t i = 0; i < n; ++i)
        diff_value(path + "[" + std::to_string(i) + "]", "", b.arr[i],
                   f.arr[i]);
      return;
    }
    for (const Json& brow : b.arr) {
      const Json* name = row_name(brow);
      const std::string rpath =
          path + "[" + (name ? name->str : "?") + "]";
      const Json* frow = nullptr;
      for (const Json& cand : f.arr) {
        const Json* cname = row_name(cand);
        if (name && cname && cname->str == name->str) {
          frow = &cand;
          break;
        }
      }
      if (!frow) {
        if (opts.allow_missing)
          note(rpath, "missing from new run");
        else
          fail(rpath, "missing from new run");
        continue;
      }
      // A failed row (a sweep index job) carries zeros, not measurements,
      // so a job that passes again is a recovery, not a changed workload.
      if (failed(brow) && !failed(*frow)) {
        note(rpath, "failed in baseline, passes in new run");
        continue;
      }
      diff_object(rpath, brow, *frow);
    }
    for (const Json& frow : f.arr) {
      const Json* name = row_name(frow);
      bool in_base = false;
      for (const Json& brow : b.arr) {
        const Json* bname = row_name(brow);
        if (name && bname && bname->str == name->str) {
          in_base = true;
          break;
        }
      }
      if (!in_base) note(path + "[" + (name ? name->str : "?") + "]",
                         "new row (not in baseline)");
    }
  }

  void diff_object(const std::string& path, const Json& b, const Json& f) {
    for (const auto& [key, bval] : b.obj) {
      if (key == "metrics" || key == "ledger") continue;
      if (classify(key) == FieldClass::kSkip) continue;
      const std::string kpath = path.empty() ? key : path + "." + key;
      const Json* fval = f.find(key);
      if (!fval) {
        // A missing leaf measurement is the same statement as an explicit
        // null: the new run skipped it. Structural members (sections,
        // row arrays) and identity fields must still be present.
        const bool leaf = !bval.is_object() && !bval.is_array();
        if (opts.allow_missing ||
            (leaf && classify(key) != FieldClass::kIdentity))
          note(kpath, "missing from new run");
        else
          fail(kpath, "missing from new run");
        continue;
      }
      diff_value(kpath, key, bval, *fval);
    }
    for (const auto& [key, fval] : f.obj) {
      (void)fval;
      if (!b.find(key)) {
        const std::string kpath = path.empty() ? key : path + "." + key;
        note(kpath, "new field (not in baseline)");
      }
    }
  }
};

}  // namespace

BenchDiffResult diff_bench_json(const Json& baseline, const Json& fresh,
                                const BenchDiffOptions& opts) {
  BenchDiffResult out;
  if (!baseline.is_object() || !fresh.is_object()) {
    out.schema_ok = false;
    out.schema_error = "both inputs must be JSON objects";
    return out;
  }
  for (const char* key : {"schema", "seed"}) {
    const Json* b = baseline.find(key);
    const Json* f = fresh.find(key);
    const double bv = b && b->is_number() ? b->number : -1.0;
    const double fv = f && f->is_number() ? f->number : -1.0;
    if (bv != fv) {
      out.schema_ok = false;
      out.schema_error = std::string(key) + " mismatch: base=" + fmt_num(bv) +
                         " new=" + fmt_num(fv);
      return out;
    }
  }
  Differ d{opts, out};
  d.diff_object("", baseline, fresh);
  return out;
}

std::string diff_result_to_text(const BenchDiffResult& res, bool quiet,
                                const std::string& label) {
  std::string out;
  if (!res.schema_ok) {
    out += "bench_diff: " + res.schema_error + "\n";
    return out;
  }
  for (const std::string& r : res.regressions) out += "FAIL " + r + "\n";
  if (!quiet)
    for (const std::string& n : res.notes) out += "note " + n + "\n";
  out += "bench_diff: " + std::to_string(res.regressions.size()) +
         " regression(s), " + std::to_string(res.notes.size()) + " note(s)";
  if (!label.empty()) out += " [" + label + "]";
  out += "\n";
  return out;
}

}  // namespace tsyn::observe
