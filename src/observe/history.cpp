#include "observe/history.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "observe/sparkline.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/text.h"

namespace tsyn::observe {

namespace {

using util::json_escape;
/// Round-trip-exact double: the store must reproduce the sweep's numbers
/// exactly, so every persisted double goes through %.17g.
using util::fmt_exact;

namespace fs = std::filesystem;

/// Sentinel z for "MAD is zero and the value moved": a deterministic
/// metric changed at all, which is categorically anomalous, not merely
/// far out. Finite so it serializes as plain JSON.
constexpr double kInfZ = 1e9;

/// Compact human-facing double (queries, sweep_stats block).
std::string fmt_short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<const HistoryEntry*> sorted_entries(const HistoryRun& r) {
  std::vector<const HistoryEntry*> out;
  out.reserve(r.entries.size());
  for (const HistoryEntry& e : r.entries) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const HistoryEntry* a, const HistoryEntry* b) {
              return a->job < b->job;
            });
  return out;
}

std::string entry_record(const std::string& run_id, const HistoryEntry& e) {
  std::ostringstream os;
  os << "{\"type\":\"entry\",\"run\":\"" << run_id << "\",\"job\":\""
     << json_escape(e.job) << "\",\"design\":\"" << json_escape(e.design)
     << "\",\"config\":\"" << json_escape(e.config) << "\",\"scan\":\""
     << json_escape(e.scan) << "\",\"width\":" << e.width
     << ",\"seed\":" << e.seed << ",\"status\":\"" << json_escape(e.status)
     << "\",\"gates\":" << e.gates << ",\"faults\":" << e.faults
     << ",\"patterns\":" << e.patterns << ",\"cubes\":" << e.cubes
     << ",\"coverage\":" << fmt_exact(e.coverage)
     << ",\"efficiency\":" << fmt_exact(e.efficiency)
     << ",\"wall_ms\":" << fmt_exact(e.wall_ms) << ",\"error\":\""
     << json_escape(e.error) << "\"}\n";
  return os.str();
}

std::string run_record(const HistoryRun& r) {
  std::ostringstream os;
  os << "{\"type\":\"run\",\"run\":\"" << r.run_id << "\",\"manifest\":\""
     << json_escape(r.manifest) << "\",\"source\":\"" << json_escape(r.source)
     << "\",\"jobs\":" << r.entries.size()
     << ",\"wall_ms\":" << fmt_exact(r.wall_ms)
     << ",\"memo_hit_rate\":" << fmt_exact(r.memo_hit_rate) << "}\n";
  return os.str();
}

/// Robust location/scale. Even-length medians average the middle pair.
double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct RobustStats {
  double median = 0, mad = 0;
};

RobustStats robust_stats(const std::vector<double>& xs) {
  RobustStats s;
  s.median = median_of(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::abs(x - s.median));
  s.mad = median_of(std::move(dev));
  return s;
}

double robust_z(double x, const RobustStats& s) {
  if (s.mad == 0.0) return x == s.median ? 0.0 : kInfZ;
  return 0.6745 * (x - s.median) / s.mad;
}

}  // namespace

std::string history_run_id(const HistoryRun& r) {
  util::Fnv1a h;
  h.str("history.run.v1").str(r.manifest);
  h.u64(double_bits(r.wall_ms)).u64(double_bits(r.memo_hit_rate));
  h.u64(r.entries.size());
  for (const HistoryEntry* e : sorted_entries(r)) {
    h.str(e->job).str(e->design).str(e->config).str(e->scan);
    h.i64(e->width).u64(e->seed).str(e->status).str(e->error);
    h.i64(e->gates).i64(e->faults).i64(e->patterns).i64(e->cubes);
    h.u64(double_bits(e->coverage)).u64(double_bits(e->efficiency));
    h.u64(double_bits(e->wall_ms));
  }
  return h.hex();
}

History history_load(const std::string& dir) {
  const std::string path = (fs::path(dir) / "store.jsonl").string();
  std::ifstream in(path);
  if (!in) throw HistoryError("no history store in " + dir + " (missing " +
                              path + ")");
  History h;
  std::map<std::string, std::size_t> run_index;  // run id -> h.runs slot
  std::map<std::string, std::int64_t> declared_jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    util::Json doc;
    try {
      doc = util::Json::parse(line);
    } catch (const util::JsonParseError&) {
      continue;  // torn trailing record from a killed ingest
    }
    const util::Json* type = doc.find("type");
    if (!type || !type->is_string()) continue;
    auto str_of = [&](const char* key) {
      const util::Json* v = doc.find(key);
      return v && v->is_string() ? v->str : std::string();
    };
    if (type->str == "run") {
      HistoryRun r;
      r.run_id = str_of("run");
      r.manifest = str_of("manifest");
      r.source = str_of("source");
      r.wall_ms = doc.number_or("wall_ms", 0);
      r.memo_hit_rate = doc.number_or("memo_hit_rate", -1);
      if (r.run_id.empty() || run_index.count(r.run_id)) continue;
      declared_jobs[r.run_id] =
          static_cast<std::int64_t>(doc.number_or("jobs", 0));
      run_index[r.run_id] = h.runs.size();
      h.runs.push_back(std::move(r));
      continue;
    }
    if (type->str != "entry") continue;
    const auto it = run_index.find(str_of("run"));
    if (it == run_index.end()) continue;  // entry without a header: drop
    HistoryEntry e;
    e.job = str_of("job");
    e.design = str_of("design");
    e.config = str_of("config");
    e.scan = str_of("scan");
    e.width = static_cast<int>(doc.number_or("width", 0));
    e.seed = static_cast<std::uint64_t>(doc.number_or("seed", 0));
    e.status = str_of("status");
    e.error = str_of("error");
    e.gates = static_cast<std::int64_t>(doc.number_or("gates", 0));
    e.faults = static_cast<std::int64_t>(doc.number_or("faults", 0));
    e.patterns = static_cast<std::int64_t>(doc.number_or("patterns", 0));
    e.cubes = static_cast<std::int64_t>(doc.number_or("cubes", 0));
    e.coverage = doc.number_or("coverage", 0);
    e.efficiency = doc.number_or("efficiency", 0);
    e.wall_ms = doc.number_or("wall_ms", 0);
    h.runs[it->second].entries.push_back(std::move(e));
  }
  // A run is trusted only when complete and content-verified: a kill mid-
  // ingest (or a hand-edited store) can only drop that run, never corrupt
  // the derived views.
  History verified;
  for (HistoryRun& r : h.runs) {
    if (declared_jobs[r.run_id] !=
        static_cast<std::int64_t>(r.entries.size()))
      continue;
    if (history_run_id(r) != r.run_id) continue;
    verified.runs.push_back(std::move(r));
  }
  return verified;
}

std::vector<std::size_t> history_canonical_order(const History& h) {
  std::vector<std::size_t> order(h.runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return h.runs[a].run_id < h.runs[b].run_id;
  });
  return order;
}

std::string history_index_json(const History& h) {
  std::set<std::string> keys;
  for (const HistoryRun& r : h.runs)
    for (const HistoryEntry& e : r.entries) keys.insert(e.job);
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"runs_total\": " << h.runs.size()
     << ",\n  \"keys\": " << keys.size() << ",\n  \"runs\": [";
  bool first_run = true;
  for (std::size_t i : history_canonical_order(h)) {
    const HistoryRun& r = h.runs[i];
    os << (first_run ? "\n    " : ",\n    ") << "{\"run\": \"" << r.run_id
       << "\", \"manifest\": \"" << json_escape(r.manifest)
       << "\", \"jobs\": " << r.entries.size()
       << ", \"wall_ms\": " << fmt_exact(r.wall_ms)
       << ", \"memo_hit_rate\": " << fmt_exact(r.memo_hit_rate)
       << ", \"entries\": [";
    first_run = false;
    bool first = true;
    for (const HistoryEntry* e : sorted_entries(r)) {
      os << (first ? "\n      " : ",\n      ") << "{\"job\": \""
         << json_escape(e->job) << "\", \"design\": \""
         << json_escape(e->design) << "\", \"config\": \""
         << json_escape(e->config) << "\", \"scan\": \""
         << json_escape(e->scan) << "\", \"width\": " << e->width
         << ", \"seed\": " << e->seed << ", \"status\": \""
         << json_escape(e->status) << "\", \"gates\": " << e->gates
         << ", \"faults\": " << e->faults << ", \"patterns\": " << e->patterns
         << ", \"cubes\": " << e->cubes
         << ", \"coverage\": " << fmt_exact(e->coverage)
         << ", \"efficiency\": " << fmt_exact(e->efficiency)
         << ", \"wall_ms\": " << fmt_exact(e->wall_ms) << ", \"error\": \""
         << json_escape(e->error) << "\"}";
      first = false;
    }
    os << (first ? "]}" : "\n    ]}");
  }
  os << (first_run ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

IngestResult history_ingest(const std::string& dir, const HistoryRun& run) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir))
    throw HistoryError("cannot create history dir " + dir + ": " +
                       ec.message());
  const std::string store_path = (fs::path(dir) / "store.jsonl").string();

  IngestResult res;
  HistoryRun stamped = run;
  stamped.run_id = history_run_id(stamped);
  res.run_id = stamped.run_id;
  res.entries = static_cast<std::int64_t>(stamped.entries.size());

  History existing;
  if (fs::exists(store_path)) existing = history_load(dir);
  bool present = false;
  for (const HistoryRun& r : existing.runs)
    if (r.run_id == stamped.run_id) present = true;

  if (!present) {
    // Same torn-newline discipline as the sweep journal: terminate any
    // partial trailing record before appending.
    if (fs::exists(store_path)) {
      std::ifstream probe(store_path, std::ios::binary | std::ios::ate);
      const auto size = probe.tellg();
      char last = '\n';
      if (size > 0) {
        probe.seekg(-1, std::ios::end);
        probe.get(last);
      }
      if (last != '\n') {
        std::ofstream fix(store_path, std::ios::binary | std::ios::app);
        fix << '\n';
      }
    }
    std::FILE* f = std::fopen(store_path.c_str(), "a");
    if (!f) throw HistoryError("cannot append to " + store_path);
    const std::string header = run_record(stamped);
    std::fwrite(header.data(), 1, header.size(), f);
    for (const HistoryEntry* e : sorted_entries(stamped)) {
      const std::string line = entry_record(stamped.run_id, *e);
      std::fwrite(line.data(), 1, line.size(), f);
    }
    std::fflush(f);
    std::fclose(f);
    res.added = true;
    existing.runs.push_back(std::move(stamped));
  }
  res.runs_total = static_cast<std::int64_t>(existing.runs.size());

  const std::string index = history_index_json(existing);
  std::ofstream out((fs::path(dir) / "index.json").string(),
                    std::ios::binary);
  if (!out) throw HistoryError("cannot write index.json in " + dir);
  out << index;
  if (!out) throw HistoryError("cannot write index.json in " + dir);
  return res;
}

const HistoryRun* history_resolve(const History& h, const std::string& ref,
                                  std::string* err) {
  const std::vector<std::size_t> order = history_canonical_order(h);
  if (order.empty()) {
    if (err) *err = "history store is empty";
    return nullptr;
  }
  if (ref.empty() || ref == "latest") return &h.runs[order.back()];
  if (ref == "prev") {
    if (order.size() < 2) {
      if (err) *err = "no previous run (store holds a single run)";
      return nullptr;
    }
    return &h.runs[order[order.size() - 2]];
  }
  if (std::all_of(ref.begin(), ref.end(),
                  [](unsigned char c) { return std::isdigit(c); })) {
    const std::size_t n = static_cast<std::size_t>(std::stoul(ref));
    if (n < 1 || n > order.size()) {
      if (err)
        *err = "run ordinal " + ref + " out of range (store holds " +
               std::to_string(order.size()) + " runs)";
      return nullptr;
    }
    return &h.runs[order[n - 1]];
  }
  const HistoryRun* match = nullptr;
  for (std::size_t i : order) {
    if (h.runs[i].run_id.rfind(ref, 0) != 0) continue;
    if (match) {
      if (err) *err = "run ref \"" + ref + "\" is ambiguous";
      return nullptr;
    }
    match = &h.runs[i];
  }
  if (!match && err)
    *err = "no run matches \"" + ref +
           "\" (want latest, prev, an ordinal, or a run-id prefix)";
  return match;
}

std::string history_run_to_bench_json(const HistoryRun& r) {
  std::ostringstream os;
  os << "{\n  \"schema\": 2,\n  \"seed\": 0,\n  \"manifest\": \""
     << json_escape(r.manifest) << "\",\n  \"wall_ms\": "
     << fmt_exact(r.wall_ms) << ",\n  \"memo_hit_rate\": "
     << fmt_exact(r.memo_hit_rate) << ",\n  \"jobs\": [";
  double cov_sum = 0;
  std::int64_t ok = 0;
  bool first = true;
  for (const HistoryEntry* e : sorted_entries(r)) {
    if (e->status == "ok") {
      cov_sum += e->coverage;
      ++ok;
    }
    os << (first ? "\n    " : ",\n    ") << "{\"case\": \""
       << json_escape(e->job) << "\", \"status\": \""
       << json_escape(e->status) << "\", \"detected\": "
       << (e->status == "ok" ? 1 : 0) << ", \"gates\": " << e->gates
       << ", \"faults\": " << e->faults << ", \"width\": " << e->width
       << ", \"coverage\": " << fmt_exact(e->coverage)
       << ", \"efficiency\": " << fmt_exact(e->efficiency)
       << ", \"patterns\": " << e->patterns << ", \"cubes\": " << e->cubes
       << ", \"wall_ms\": " << fmt_exact(e->wall_ms) << "}";
    first = false;
  }
  os << "\n  ],\n  \"summary\": {\"jobs\": " << r.entries.size()
     << ", \"jobs_ok\": " << ok << ", \"mean_coverage\": "
     << fmt_exact(ok > 0 ? cov_sum / static_cast<double>(ok) : 0.0)
     << "}\n}\n";
  return os.str();
}

std::vector<TrendSeries> history_trend(const History& h,
                                       const std::string& filter) {
  std::map<std::string, TrendSeries> by_job;
  for (std::size_t i : history_canonical_order(h)) {
    const HistoryRun& r = h.runs[i];
    for (const HistoryEntry* e : sorted_entries(r)) {
      if (!filter.empty() && e->job.find(filter) == std::string::npos)
        continue;
      TrendSeries& s = by_job[e->job];
      s.job = e->job;
      TrendPoint p;
      p.run_id = r.run_id;
      p.status = e->status;
      p.coverage = e->coverage;
      p.efficiency = e->efficiency;
      p.wall_ms = e->wall_ms;
      p.patterns = e->patterns;
      s.points.push_back(std::move(p));
    }
  }
  std::vector<TrendSeries> out;
  out.reserve(by_job.size());
  for (auto& [job, s] : by_job) out.push_back(std::move(s));
  return out;
}

std::vector<HistoryOutlier> history_outliers(const History& h,
                                             const OutlierOptions& opts) {
  std::vector<HistoryOutlier> out;
  const std::vector<std::size_t> order = history_canonical_order(h);
  const std::size_t min_pts =
      static_cast<std::size_t>(std::max(2, opts.min_points));

  // Peers scope: within each run, wall_ms against same-design peers.
  for (std::size_t i : order) {
    const HistoryRun& r = h.runs[i];
    std::map<std::string, std::vector<const HistoryEntry*>> by_design;
    for (const HistoryEntry* e : sorted_entries(r))
      by_design[e->design].push_back(e);
    for (const auto& [design, peers] : by_design) {
      if (peers.size() < min_pts) continue;
      std::vector<double> xs;
      xs.reserve(peers.size());
      for (const HistoryEntry* e : peers) xs.push_back(e->wall_ms);
      const RobustStats st = robust_stats(xs);
      for (const HistoryEntry* e : peers) {
        const double z = robust_z(e->wall_ms, st);
        if (std::abs(z) < opts.z_threshold) continue;
        HistoryOutlier o;
        o.job = e->job;
        o.metric = "wall_ms";
        o.scope = "peers";
        o.run_id = r.run_id;
        o.value = e->wall_ms;
        o.median = st.median;
        o.mad = st.mad;
        o.z = z;
        o.gating = false;  // timing: informational, like bench_diff's kTime
        out.push_back(std::move(o));
      }
    }
  }

  // Runs scope: each key's metrics across the last_n canonical runs.
  for (const TrendSeries& s : history_trend(h)) {
    std::vector<TrendPoint> pts = s.points;
    if (opts.last_n > 0 &&
        pts.size() > static_cast<std::size_t>(opts.last_n))
      pts.erase(pts.begin(),
                pts.end() - static_cast<std::ptrdiff_t>(opts.last_n));
    if (pts.size() < min_pts) continue;
    struct Metric {
      const char* name;
      bool gating;
      double (*get)(const TrendPoint&);
    };
    const Metric metrics[] = {
        {"coverage", true, [](const TrendPoint& p) { return p.coverage; }},
        {"patterns", true,
         [](const TrendPoint& p) { return static_cast<double>(p.patterns); }},
        {"wall_ms", false, [](const TrendPoint& p) { return p.wall_ms; }},
    };
    for (const Metric& m : metrics) {
      std::vector<double> xs;
      xs.reserve(pts.size());
      for (const TrendPoint& p : pts) xs.push_back(m.get(p));
      const RobustStats st = robust_stats(xs);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const double z = robust_z(xs[i], st);
        if (std::abs(z) < opts.z_threshold) continue;
        HistoryOutlier o;
        o.job = s.job;
        o.metric = m.name;
        o.scope = "runs";
        o.run_id = pts[i].run_id;
        o.value = xs[i];
        o.median = st.median;
        o.mad = st.mad;
        o.z = z;
        o.gating = m.gating;
        out.push_back(std::move(o));
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const HistoryOutlier& a, const HistoryOutlier& b) {
              if (a.gating != b.gating) return a.gating > b.gating;
              if (std::abs(a.z) != std::abs(b.z))
                return std::abs(a.z) > std::abs(b.z);
              if (a.job != b.job) return a.job < b.job;
              if (a.metric != b.metric)
                return std::strcmp(a.metric.c_str(), b.metric.c_str()) < 0;
              return a.run_id < b.run_id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Fleet dashboard
// ---------------------------------------------------------------------------

namespace {

// Escaping, palette, and sparklines come from observe/sparkline.h —
// shared with the HTML run report.
constexpr const char* kBlue = kSparkBlue;
constexpr const char* kOrange = kSparkOrange;
constexpr const char* kRed = kSparkRed;
constexpr const char* kGreen = kSparkGreen;

std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100 * v);
  return buf;
}

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", v);
  return buf;
}

}  // namespace

std::string history_to_html(const History& h) {
  const std::vector<std::size_t> order = history_canonical_order(h);
  const std::vector<TrendSeries> trend = history_trend(h);
  const std::vector<HistoryOutlier> outliers = history_outliers(h);
  const HistoryRun* latest = order.empty() ? nullptr : &h.runs[order.back()];
  const HistoryRun* prev =
      order.size() < 2 ? nullptr : &h.runs[order[order.size() - 2]];

  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>tsyn fleet history</title>\n"
     << "<style>\n"
     << "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
        "max-width:72em;padding:0 1em;color:#1a1a2e}\n"
     << "h1{font-size:1.5em}h2{font-size:1.15em;margin-top:1.6em;"
        "border-bottom:1px solid #ddd;padding-bottom:.25em}\n"
     << "table{border-collapse:collapse;width:100%;font-size:13px}\n"
     << "th,td{text-align:left;padding:.3em .7em;border-bottom:1px solid "
        "#eee;vertical-align:middle}\n"
     << "th{background:#f6f6fa}td.num,th.num{text-align:right;"
        "font-variant-numeric:tabular-nums}\n"
     << "code{background:#f4f4f8;padding:.1em .3em;border-radius:3px}\n"
     << ".spark{width:120px;height:26px;display:inline-block;"
        "vertical-align:middle}\n"
     << ".up{color:#3ca951}.down{color:#ff725c}.flat{color:#888}\n"
     << ".bar{display:inline-block;height:10px;background:#4269d0;"
        "border-radius:2px;vertical-align:middle}\n"
     << ".muted{color:#888}\n"
     << "</style>\n</head>\n<body>\n";
  os << "<h1>tsyn fleet history</h1>\n";
  os << "<p>" << h.runs.size() << " run(s), " << trend.size()
     << " grid key(s). Run order is canonical (sorted by content id); the "
        "store is timestamp-free by design.</p>\n";

  // -- trend sparklines ------------------------------------------------------
  os << "<h2>Trends per key</h2>\n<table>\n<tr><th>job</th>"
        "<th>coverage</th><th class=\"num\">latest</th>"
        "<th>runtime</th><th class=\"num\">latest</th>"
        "<th class=\"num\">patterns</th><th class=\"num\">runs</th></tr>\n";
  for (const TrendSeries& s : trend) {
    std::vector<double> cov, ms;
    for (const TrendPoint& p : s.points) {
      cov.push_back(p.coverage);
      ms.push_back(p.wall_ms);
    }
    const TrendPoint& last = s.points.back();
    os << "<tr><td><code>" << html_escape(s.job) << "</code></td><td>";
    append_sparkline(os, cov, kBlue);
    os << "</td><td class=\"num\">" << fmt_pct(last.coverage) << "</td><td>";
    append_sparkline(os, ms, kOrange);
    os << "</td><td class=\"num\">" << fmt_ms(last.wall_ms)
       << "</td><td class=\"num\">" << last.patterns
       << "</td><td class=\"num\">" << s.points.size() << "</td></tr>\n";
  }
  os << "</table>\n";

  // -- regression table: latest vs previous ---------------------------------
  os << "<h2>Latest vs previous run</h2>\n";
  if (!latest || !prev) {
    os << "<p class=\"muted\">Need at least two runs for a regression "
          "view.</p>\n";
  } else {
    std::map<std::string, const HistoryEntry*> prev_by_job;
    for (const HistoryEntry& e : prev->entries) prev_by_job[e.job] = &e;
    os << "<table>\n<tr><th>job</th><th class=\"num\">coverage Δ</th>"
          "<th class=\"num\">patterns Δ</th><th class=\"num\">wall_ms Δ</th>"
          "<th>status</th></tr>\n";
    for (const HistoryEntry* e : sorted_entries(*latest)) {
      const auto it = prev_by_job.find(e->job);
      if (it == prev_by_job.end()) continue;
      const HistoryEntry* p = it->second;
      auto delta_cell = [&](double d, bool higher_better,
                            const std::string& text) {
        const char* cls = d == 0 ? "flat" : ((d > 0) == higher_better)
                                                 ? "up"
                                                 : "down";
        os << "<td class=\"num " << cls << "\">" << text << "</td>";
      };
      char buf[64];
      os << "<tr><td><code>" << html_escape(e->job) << "</code></td>";
      const double dc = e->coverage - p->coverage;
      std::snprintf(buf, sizeof(buf), "%+.3f pp", 100 * dc);
      delta_cell(dc, true, buf);
      const double dp = static_cast<double>(e->patterns - p->patterns);
      std::snprintf(buf, sizeof(buf), "%+lld",
                    static_cast<long long>(e->patterns - p->patterns));
      delta_cell(dp, false, buf);
      const double dm = e->wall_ms - p->wall_ms;
      std::snprintf(buf, sizeof(buf), "%+.1f", dm);
      delta_cell(dm, false, buf);
      os << "<td>" << html_escape(e->status)
         << (e->status != p->status
                 ? " <span class=\"down\">(was " + html_escape(p->status) +
                       ")</span>"
                 : "")
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // -- outliers --------------------------------------------------------------
  os << "<h2>Outliers</h2>\n";
  if (outliers.empty()) {
    os << "<p class=\"muted\">No anomalies at the default robust-z "
          "threshold.</p>\n";
  } else {
    os << "<table>\n<tr><th>job</th><th>metric</th><th>scope</th>"
          "<th class=\"num\">value</th><th class=\"num\">median</th>"
          "<th class=\"num\">z</th><th>gating</th></tr>\n";
    for (const HistoryOutlier& o : outliers) {
      char zbuf[32];
      std::snprintf(zbuf, sizeof(zbuf), "%.1f", o.z);
      os << "<tr><td><code>" << html_escape(o.job) << "</code></td><td>"
         << o.metric << "</td><td>" << o.scope << "</td><td class=\"num\">"
         << fmt_short(o.value) << "</td><td class=\"num\">"
         << fmt_short(o.median) << "</td><td class=\"num\">"
         << (std::abs(o.z) >= kInfZ ? "∞" : zbuf) << "</td><td>"
         << (o.gating ? "<span class=\"down\">yes</span>" : "no")
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // -- cache economy ---------------------------------------------------------
  os << "<h2>Cache economy per run</h2>\n<table>\n"
        "<tr><th>run</th><th class=\"num\">jobs</th>"
        "<th class=\"num\">wall</th><th>memo hit rate</th></tr>\n";
  for (std::size_t i : order) {
    const HistoryRun& r = h.runs[i];
    const double rate = r.memo_hit_rate < 0 ? 0 : r.memo_hit_rate;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "<span class=\"bar\" style=\"width:%.0fpx\"></span> %s",
                  120 * rate,
                  r.memo_hit_rate < 0 ? "n/a" : fmt_pct(rate).c_str());
    os << "<tr><td><code>" << html_escape(r.run_id.substr(0, 12))
       << "</code></td><td class=\"num\">" << r.entries.size()
       << "</td><td class=\"num\">" << fmt_ms(r.wall_ms) << "</td><td>" << buf
       << "</td></tr>\n";
  }
  os << "</table>\n";

  // -- stragglers ------------------------------------------------------------
  os << "<h2>Stragglers (latest run)</h2>\n";
  if (!latest || latest->entries.empty()) {
    os << "<p class=\"muted\">No runs ingested yet.</p>\n";
  } else {
    std::vector<const HistoryEntry*> by_cost = sorted_entries(*latest);
    std::stable_sort(by_cost.begin(), by_cost.end(),
                     [](const HistoryEntry* a, const HistoryEntry* b) {
                       return a->wall_ms > b->wall_ms;
                     });
    const double max_ms = std::max(1e-9, by_cost.front()->wall_ms);
    const std::size_t shown = std::min<std::size_t>(by_cost.size(), 8);
    os << "<table>\n<tr><th>job</th><th class=\"num\">wall_ms</th>"
          "<th>share</th></tr>\n";
    for (std::size_t i = 0; i < shown; ++i) {
      const HistoryEntry* e = by_cost[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "<span class=\"bar\" style=\"width:%.0fpx;background:%s\">"
                    "</span>",
                    220 * e->wall_ms / max_ms, i == 0 ? kRed : kGreen);
      os << "<tr><td><code>" << html_escape(e->job)
         << "</code></td><td class=\"num\">" << fmt_ms(e->wall_ms)
         << "</td><td>" << buf << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "</body>\n</html>\n";
  return os.str();
}

std::string outliers_to_json(const std::vector<HistoryOutlier>& outliers) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < outliers.size(); ++i) {
    const HistoryOutlier& o = outliers[i];
    os << (i ? ",\n   " : "\n   ") << "{\"job\": \"" << json_escape(o.job)
       << "\", \"metric\": \"" << o.metric << "\", \"scope\": \"" << o.scope
       << "\", \"run\": \"" << o.run_id
       << "\", \"value\": " << fmt_short(o.value)
       << ", \"median\": " << fmt_short(o.median)
       << ", \"mad\": " << fmt_short(o.mad) << ", \"z\": " << fmt_short(o.z)
       << ", \"gating\": " << (o.gating ? "true" : "false") << "}";
  }
  os << (outliers.empty() ? "]" : "\n  ]");
  return os.str();
}

}  // namespace tsyn::observe
