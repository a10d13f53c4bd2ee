#include "observe/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "observe/profile.h"
#include "observe/sparkline.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/prometheus.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace tsyn::observe {

namespace {

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

/// Strict non-negative integer parse for ?seconds=N (digits only).
bool parse_seconds(const std::string& text, int* out) {
  if (text.empty() || text.size() > 4) return false;
  int v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
constexpr const char* kAppJson = "application/json; charset=utf-8";
constexpr const char* kTextHtml = "text/html; charset=utf-8";

}  // namespace

bool ObservabilityServer::start(const ServeOptions& opts, std::string* err) {
  opts_ = opts;
  quit_.store(false, std::memory_order_release);
  start_ms_ = now_ms();
  {
    std::lock_guard<std::mutex> lk(ring_mu_);
    done_ring_.clear();
    rate_ring_.clear();
    last_sample_ms_ = 0.0;
    last_sample_done_ = 0.0;
  }
  http_.set_idle_tick([this] { sample_rings(); });
  return http_.start(opts.addr, opts.port,
                     [this](const util::HttpRequest& r) { return handle(r); },
                     err);
}

void ObservabilityServer::stop() { http_.stop(); }

void ObservabilityServer::wait_for_quit(
    const std::function<bool()>& until) const {
  while (running() && !quit_requested() && !(until && until())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void ObservabilityServer::sample_rings() {
  // Runs on the HTTP thread's idle tick (~10 Hz idle, more often under
  // scrape load); keep the dashboard cadence time-based, not tick-based.
  const double now = now_ms();
  std::lock_guard<std::mutex> lk(ring_mu_);
  if (last_sample_ms_ != 0.0 && now - last_sample_ms_ < 500.0) return;
  double done = 0.0;
  for (const util::ProgressRow& row : util::progress_snapshot())
    done += static_cast<double>(row.done);
  const double dt_s =
      last_sample_ms_ == 0.0 ? 0.0 : (now - last_sample_ms_) / 1e3;
  const double rate =
      dt_s > 0.0 ? std::max(0.0, (done - last_sample_done_) / dt_s) : 0.0;
  done_ring_.push_back(done);
  rate_ring_.push_back(rate);
  while (done_ring_.size() > kRingCap) done_ring_.pop_front();
  while (rate_ring_.size() > kRingCap) rate_ring_.pop_front();
  last_sample_ms_ = now;
  last_sample_done_ = done;
}

util::HttpResponse ObservabilityServer::handle(const util::HttpRequest& req) {
  if (req.path == "/healthz") return {200, kTextPlain, "ok\n"};

  if (req.path == "/readyz") {
    // Ready means "the workload's telemetry session is attached": the
    // progress/jobs endpoints report live data rather than zeros.
    if (util::telemetry_active()) return {200, kTextPlain, "ready\n"};
    return {503, kTextPlain, "no telemetry session attached\n"};
  }

  if (req.path == "/quitz") {
    if (!opts_.allow_quit)
      return {404, kTextPlain, "quit disabled (attached server)\n"};
    quit_.store(true, std::memory_order_release);
    return {200, kTextPlain, "bye\n"};
  }

  if (req.path == "/metrics") {
    std::string out = util::metrics_to_prometheus(util::metrics().snapshot());
    // Server self-stats ride along under their own tsyn_serve_* names —
    // deliberately *not* registry counters, so scraping never shows up
    // in the workload's --metrics artifact (see header contract). The
    // +1 counts this in-flight request, already acked by HttpServer.
    out += "# TYPE tsyn_serve_requests_total counter\n";
    out += "tsyn_serve_requests_total " + std::to_string(http_.requests()) +
           "\n";
    out += "# TYPE tsyn_serve_rejected_total counter\n";
    out += "tsyn_serve_rejected_total " + std::to_string(http_.rejected()) +
           "\n";
    out += "# TYPE tsyn_serve_uptime_seconds gauge\n";
    out += "tsyn_serve_uptime_seconds ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f\n", (now_ms() - start_ms_) / 1e3);
    out += buf;
    // Progress rows as labeled gauges (done/total pairs).
    const std::vector<util::ProgressRow> rows = util::progress_snapshot();
    if (!rows.empty()) {
      out += "# TYPE tsyn_progress_done gauge\n";
      for (const util::ProgressRow& r : rows)
        out += "tsyn_progress_done{name=\"" + r.name + "\"} " +
               std::to_string(r.done) + "\n";
      out += "# TYPE tsyn_progress_total gauge\n";
      for (const util::ProgressRow& r : rows)
        out += "tsyn_progress_total{name=\"" + r.name + "\"} " +
               std::to_string(std::max(r.total, r.done)) + "\n";
    }
    return {200, "text/plain; version=0.0.4; charset=utf-8", out};
  }

  if (req.path == "/progress") {
    std::string out = "{\"schema\":1,\"command\":\"";
    out += util::json_escape(opts_.command);
    out += "\",\"t_ms\":";
    append_double(out, now_ms() - start_ms_);
    out += ",\"telemetry_active\":";
    out += util::telemetry_active() ? "true" : "false";
    out += ",\"phase\":\"";
    out += util::json_escape(util::telemetry_phase());
    out += "\",\"progress\":[";
    bool first = true;
    for (const util::ProgressRow& row : util::progress_snapshot()) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += util::json_escape(row.name);
      out += "\",\"done\":" + std::to_string(row.done);
      out += ",\"total\":" + std::to_string(std::max(row.total, row.done));
      out += "}";
    }
    out += "],\"last_heartbeat\":";
    const std::string hb = util::telemetry_last_line();
    out += hb.empty() ? "null" : hb;  // already a JSON object
    out += "}\n";
    return {200, kAppJson, out};
  }

  if (req.path == "/jobs") {
    const util::JobsSnapshot jobs = util::telemetry_jobs_snapshot();
    std::string out = "{\"schema\":1,\"jobs\":{\"started\":";
    out += std::to_string(jobs.started);
    out += ",\"done\":" + std::to_string(jobs.done);
    out += ",\"failed\":" + std::to_string(jobs.failed);
    out += ",\"in_flight\":" + std::to_string(jobs.running.size());
    out += ",\"running\":[";
    const std::size_t shown =
        std::min(jobs.running.size(), util::kJobsRunningCap);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i) out += ',';
      out += '"';
      out += util::json_escape(jobs.running[i]);
      out += '"';
    }
    out += "]}";
    if (opts_.jobs_extra) {
      const std::string extra = opts_.jobs_extra();
      if (!extra.empty()) out += ",\"sweep\":" + extra;
    }
    out += "}\n";
    return {200, kAppJson, out};
  }

  if (req.path == "/profile") return profile_endpoint(req.query);

  if (req.path == "/") return dashboard();

  return {404, kTextPlain,
          "not found\nendpoints: / /metrics /progress /jobs "
          "/profile?seconds=N /healthz /readyz" +
              std::string(opts_.allow_quit ? " /quitz" : "") + "\n"};
}

util::HttpResponse ObservabilityServer::profile_endpoint(
    const std::string& query) const {
  int seconds = 1;
  const std::string arg = util::http_query_param(query, "seconds");
  if (!arg.empty() && !parse_seconds(arg, &seconds))
    return {400, kTextPlain, "bad seconds= (strict non-negative integer)\n"};
  seconds = std::min(seconds, opts_.max_profile_seconds);

  // Span-stack recording is enabled lazily, on the first /profile hit: a
  // server nobody profiles must not tax every span push in the workload.
  // Spans entered after this line are sampled; recording stays on for
  // the rest of the process, so repeat profiles see warm stacks.
  util::trace_stacks_enable();

  // Sampling happens here, on the serving thread: the request *is* the
  // profiling session. A second scraper queues behind it (serial server),
  // which is the bounded-budget behavior we want.
  Profiler prof;
  const double deadline = now_ms() + 1e3 * seconds;
  do {
    prof.sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (now_ms() < deadline);

  std::string out = "# tsyn profile seconds=" + std::to_string(seconds) +
                    " ticks=" + std::to_string(prof.ticks()) +
                    " samples=" + std::to_string(prof.samples()) + "\n";
  out += prof.collapsed();
  return {200, kTextPlain, out};
}

util::HttpResponse ObservabilityServer::dashboard() const {
  std::deque<double> done_ring, rate_ring;
  {
    std::lock_guard<std::mutex> lk(ring_mu_);
    done_ring = done_ring_;
    rate_ring = rate_ring_;
  }
  const std::vector<double> done_ys(done_ring.begin(), done_ring.end());
  const std::vector<double> rate_ys(rate_ring.begin(), rate_ring.end());
  const util::JobsSnapshot jobs = util::telemetry_jobs_snapshot();
  const util::MetricsSnapshot m = util::metrics().snapshot();

  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n"
     << "<meta http-equiv=\"refresh\" content=\"2\">\n"
     << "<title>tsyn live</title>\n"
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
     << ".bar{display:inline-block;height:10px;background:" << kSparkBlue
     << ";border-radius:2px;vertical-align:middle}\n"
     << ".muted{color:#888}\n"
     << "</style>\n</head>\n<body>\n";

  char buf[160];
  std::snprintf(buf, sizeof buf, "%.1f", (now_ms() - start_ms_) / 1e3);
  os << "<h1>tsyn live &middot; <code>" << html_escape(opts_.command)
     << "</code></h1>\n<p class=\"muted\">" << html_escape(address()) << ':'
     << port() << " &middot; up " << buf << " s &middot; phase <code>"
     << html_escape(util::telemetry_phase()) << "</code> &middot; telemetry "
     << (util::telemetry_active() ? "attached" : "detached")
     << " &middot; auto-refresh 2s</p>\n";

  os << "<h2>Throughput</h2>\n<table>\n"
     << "<tr><th>series</th><th>trend</th><th class=\"num\">now</th></tr>\n";
  os << "<tr><td>progress done (all counters)</td><td>";
  append_sparkline(os, done_ys, kSparkBlue);
  os << "</td><td class=\"num\">"
     << (done_ys.empty() ? std::string("&ndash;")
                         : std::to_string(
                               static_cast<std::int64_t>(done_ys.back())))
     << "</td></tr>\n";
  os << "<tr><td>rate (items/s)</td><td>";
  append_sparkline(os, rate_ys, kSparkOrange);
  std::snprintf(buf, sizeof buf, "%.1f", rate_ys.empty() ? 0.0
                                                         : rate_ys.back());
  os << "</td><td class=\"num\">" << buf << "</td></tr>\n</table>\n";

  os << "<h2>Progress</h2>\n";
  const std::vector<util::ProgressRow> rows = util::progress_snapshot();
  if (rows.empty()) {
    os << "<p class=\"muted\">no progress counters registered yet</p>\n";
  } else {
    os << "<table>\n<tr><th>counter</th><th class=\"num\">done</th>"
       << "<th class=\"num\">total</th><th>completion</th></tr>\n";
    for (const util::ProgressRow& row : rows) {
      const std::int64_t total = std::max(row.total, row.done);
      const double frac =
          total > 0 ? static_cast<double>(row.done) /
                          static_cast<double>(total)
                    : 0.0;
      std::snprintf(buf, sizeof buf,
                    "<span class=\"bar\" style=\"width:%.0fpx\"></span> "
                    "%.1f%%",
                    120.0 * frac, 100.0 * frac);
      os << "<tr><td><code>" << html_escape(row.name)
         << "</code></td><td class=\"num\">" << row.done
         << "</td><td class=\"num\">" << total << "</td><td>" << buf
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  if (jobs.started > 0) {
    os << "<h2>Jobs</h2>\n<p>" << jobs.done << " / " << jobs.started
       << " done, " << jobs.failed << " failed, " << jobs.running.size()
       << " in flight</p>\n";
    if (!jobs.running.empty()) {
      os << "<p>";
      const std::size_t shown =
          std::min(jobs.running.size(), util::kJobsRunningCap);
      for (std::size_t i = 0; i < shown; ++i)
        os << (i ? " " : "") << "<code>" << html_escape(jobs.running[i])
           << "</code>";
      if (jobs.running.size() > shown)
        os << " <span class=\"muted\">+"
           << (jobs.running.size() - shown) << " more</span>";
      os << "</p>\n";
    }
  }

  os << "<h2>Top counters</h2>\n";
  std::vector<std::pair<std::string, std::int64_t>> top(m.counters.begin(),
                                                        m.counters.end());
  std::stable_sort(top.begin(), top.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (top.size() > 12) top.resize(12);
  if (top.empty()) {
    os << "<p class=\"muted\">registry is empty</p>\n";
  } else {
    os << "<table>\n<tr><th>counter</th><th class=\"num\">value</th></tr>\n";
    for (const auto& [name, v] : top)
      os << "<tr><td><code>" << html_escape(name)
         << "</code></td><td class=\"num\">" << v << "</td></tr>\n";
    os << "</table>\n";
  }

  os << "<h2>Endpoints</h2>\n<p><code>/metrics</code> <code>/progress</code> "
        "<code>/jobs</code> <code>/profile?seconds=1</code> "
        "<code>/healthz</code> <code>/readyz</code>"
     << (opts_.allow_quit ? " <code>/quitz</code>" : "") << "</p>\n"
     << "<p class=\"muted\">served " << requests()
     << " requests; scraping never perturbs the workload &mdash; see "
        "docs/observability.md</p>\n</body>\n</html>\n";
  return {200, kTextHtml, os.str()};
}

}  // namespace tsyn::observe
