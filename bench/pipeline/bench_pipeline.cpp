// bench_pipeline: end-to-end benchmark of the tsyn flow, layer by layer.
//
//   bench_pipeline --seconds S [--workload NAME|all] [--seed N]
//                  [--trace 0|1] [--trace-dir DIR] [--out FILE]
//
// Runs the named workload (default: all three) as a series of timed passes.
// Every pass is a fresh child process (this binary re-executed with
// --child), one at a time, so no cache survives from one pass to the next:
// that is how users meet the flow, one cold `tsyn_cli` process per design.
// First one check pass runs the flow single-threaded with every output
// check on; its result digest must equal every timed pass's. It and the
// timed passes after it fit inside --seconds (at least kMinPasses run).
// With --trace 1 one more pass runs with tracing on and reports where its
// time went, layer by layer (and writes its Chrome trace into --trace-dir).
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (medians over the timed passes) without
// --trace 1, and the per-layer metrics of the traced pass with it. --out
// writes the full record: host, every pass, quartiles, checks, layers.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gatelevel/widebits.h"
#include "layers.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace tsyn;
using bench::FlowOutcome;

constexpr std::uint64_t kDefaultSeed = 61713;
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 500;
/// A child that runs longer than this is killed and counted as failed.
constexpr double kChildTimeoutS = 150;

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: bench_pipeline --seconds S [--workload NAME|all] "
               "[--seed N] [--trace 0|1] [--trace-dir DIR] [--out FILE]\n",
               msg.c_str());
  std::exit(2);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Worker threads of the grading engines: two where the host has them.
int flow_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 2 ? 2 : 1;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ", ";
    s += quoted(k) + ": " + num(v);
  }
  return s + "}";
}

std::map<std::string, double> read_map(const util::Json* j) {
  std::map<std::string, double> m;
  if (j && j->is_object())
    for (const auto& [k, v] : j->obj)
      if (v.is_number()) m[k] = v.number;
  return m;
}

// ---------------------------------------------------------------------------
// Child: one pass, reported as one JSON line on stdout.
// ---------------------------------------------------------------------------

enum class Mode { kPass, kCheck, kTrace };

int child_main(Mode mode, const std::string& workload, std::uint64_t seed,
               const std::string& trace_file) {
  const std::int64_t t_main = now_ns();
  const bench::Inputs in = bench::make_inputs(workload, seed);
  const std::int64_t t_ready = now_ns();

  bench::FlowOptions opts;
  opts.threads = mode == Mode::kCheck ? 1 : flow_threads();
  opts.check = mode == Mode::kCheck;
  if (mode == Mode::kTrace) {
    util::trace_reset();
    util::trace_enable();
  }
  util::metrics().reset();
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  FlowOutcome out;
  {
    TSYN_SPAN("pass");
    out = bench::run_flow(in, opts);
  }
  const std::int64_t t1 = now_ns();
  const double cpu1 = cpu_seconds();

  std::string layers = "{}";
  if (mode == Mode::kTrace) {
    util::trace_disable();
    const std::string trace = util::trace_to_json();
    if (!trace_file.empty()) {
      std::ofstream f(trace_file);
      f << trace;
      if (!f) out.errors.push_back("cannot write " + trace_file);
    }
    try {
      layers = json_map(bench::per_layer_metrics(
          bench::layers_from_trace(trace), util::metrics().snapshot(),
          out.counts, out.quality));
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("layer accounting: ") + e.what());
    }
  }

  std::string errors = "[";
  for (const std::string& e : out.errors)
    errors += (errors.size() > 1 ? ", " : "") + quoted(e);
  errors += "]";
  std::printf(
      "{\"ready_ns\": %" PRId64 ", \"setup_s\": %s, \"wall_s\": %s, "
      "\"cpu_s\": %s, \"flows\": %ld, \"failed\": %ld, \"digest\": \"%s\", "
      "\"errors\": %s, \"quality\": %s, \"layers\": %s}\n",
      t_ready, num(1e-9 * static_cast<double>(t_ready - t_main)).c_str(),
      num(1e-9 * static_cast<double>(t1 - t0)).c_str(),
      num(cpu1 - cpu0).c_str(), out.flows, out.failed,
      hex(out.digest).c_str(), errors.c_str(),
      json_map(out.quality).c_str(), layers.c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Parent: spawn one child at a time, collect its line and its rusage.
// ---------------------------------------------------------------------------

struct PassRecord {
  bool ok = false;
  std::string error;  ///< why the child produced no usable line
  double setup_s = 0, wall_s = 0, cpu_s = 0, peak_rss_mb = 0;
  long flows = 0, failed = 0;
  std::string digest;
  std::vector<std::string> errors;
  std::map<std::string, double> quality, layers;
};

PassRecord spawn_pass(Mode mode, const std::string& workload,
                      std::uint64_t seed, const std::string& trace_file,
                      long designs) {
  std::vector<std::string> args{
      "bench_pipeline", "--child",
      mode == Mode::kPass ? "pass" : mode == Mode::kCheck ? "check" : "trace",
      "--workload", workload, "--seed", std::to_string(seed)};
  if (!trace_file.empty()) {
    args.push_back("--trace-file");
    args.push_back(trace_file);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  PassRecord r;
  r.flows = designs;
  r.failed = designs;  // until the child reports otherwise
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const std::int64_t t_spawn = now_ns();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    r.error = std::string("spawn: ") + std::strerror(rc);
    return r;
  }

  std::string text;
  bool timed_out = false;
  char buf[65536];
  for (;;) {
    const double left =
        kChildTimeoutS - 1e-9 * static_cast<double>(now_ns() - t_spawn);
    pollfd p{fds[0], POLLIN, 0};
    const int ready =
        left > 0 ? poll(&p, 1, static_cast<int>(left * 1000) + 1) : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (timed_out) {
    r.error = "child timed out";
    return r;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.error = "child exited abnormally (status " + std::to_string(status) +
              ")";
    return r;
  }
  try {
    // The report is the child's last line; anything before it is chatter.
    while (!text.empty() && text.back() == '\n') text.pop_back();
    const util::Json j =
        util::Json::parse(text.substr(text.rfind('\n') + 1));  // npos + 1 == 0
    r.setup_s = 1e-9 * (j.number_or("ready_ns", 0) -
                        static_cast<double>(t_spawn));
    r.wall_s = j.number_or("wall_s", 0);
    r.cpu_s = j.number_or("cpu_s", 0);
    r.flows = static_cast<long>(j.number_or("flows", 0));
    r.failed = static_cast<long>(j.number_or("failed", 0));
    if (const util::Json* d = j.find("digest")) r.digest = d->str;
    if (const util::Json* e = j.find("errors"))
      for (const util::Json& s : e->arr) r.errors.push_back(s.str);
    r.quality = read_map(j.find("quality"));
    r.layers = read_map(j.find("layers"));
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = std::string("unreadable child output: ") + e.what();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Statistics: median and quartiles as Python's statistics.quantiles(n=4)
// (the default "exclusive" method) gives them.
// ---------------------------------------------------------------------------

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  int n = 0;
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const long m = static_cast<long>(n) + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    const std::size_t k = static_cast<std::size_t>(j);
    q[i - 1] = (v[k - 1] * (4 - delta) + v[k] * delta) / 4;
  }
  s.q1 = q[0];
  s.q3 = q[2];
  return s;
}

// ---------------------------------------------------------------------------
// One workload, end to end.
// ---------------------------------------------------------------------------

/// The end-to-end metrics, in report order.
const std::vector<bench::MetricSpec>& end_to_end_specs() {
  static const std::vector<bench::MetricSpec> specs{
      {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
      {"setup_s", "s"}};
  return specs;
}

struct WorkloadResult {
  std::string name;
  std::uint64_t seed = 0;
  int threads = 1;
  bool correct = false;
  long attempted = 0, failed = 0;
  std::vector<std::string> problems;
  PassRecord check;
  std::vector<PassRecord> passes;
  std::map<std::string, Summary> e2e;
  bool traced = false;
  PassRecord trace;
  std::string trace_file;
};

double metric_of(const PassRecord& p, const std::string& name) {
  if (name == "wall_s") return p.wall_s;
  if (name == "cpu_s") return p.cpu_s;
  if (name == "peak_rss_mb") return p.peak_rss_mb;
  return p.setup_s;
}

/// Counts a pass's flows and failures into the run and notes why it failed.
void account(WorkloadResult& w, const PassRecord& p, const char* label) {
  w.attempted += p.flows;
  w.failed += p.failed;
  if (!p.ok) w.problems.push_back(std::string(label) + ": " + p.error);
  for (const std::string& e : p.errors)
    w.problems.push_back(std::string(label) + ": " + e);
}

WorkloadResult run_workload(const std::string& name, std::uint64_t seed,
                            double seconds, bool trace,
                            const std::string& trace_dir) {
  WorkloadResult w;
  w.name = name;
  w.seed = seed;
  w.threads = flow_threads();
  const long designs =
      static_cast<long>(bench::make_inputs(name, seed).designs.size());

  // The check pass and the timed passes fit inside --seconds: a timed pass
  // starts only if it would end in time were it as slow as the slowest
  // timed pass so far.
  const std::int64_t start = now_ns();
  w.check = spawn_pass(Mode::kCheck, name, seed, "", designs);
  account(w, w.check, "check pass");
  double slowest = 0;
  while (static_cast<int>(w.passes.size()) < kMaxPasses) {
    const std::int64_t t = now_ns();
    const double elapsed = 1e-9 * static_cast<double>(t - start);
    if (static_cast<int>(w.passes.size()) >= kMinPasses &&
        elapsed + slowest > seconds)
      break;
    w.passes.push_back(spawn_pass(Mode::kPass, name, seed, "", designs));
    account(w, w.passes.back(), "timed pass");
    slowest = std::max(slowest, 1e-9 * static_cast<double>(now_ns() - t));
  }

  if (trace) {
    w.traced = true;
    if (!trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      w.trace_file = (std::filesystem::path(trace_dir) /
                      (name + ".trace.json")).string();
    }
    w.trace = spawn_pass(Mode::kTrace, name, seed, w.trace_file, designs);
    account(w, w.trace, "traced pass");
  }

  for (const bench::MetricSpec& m : end_to_end_specs()) {
    std::vector<double> v;
    for (const PassRecord& p : w.passes)
      if (p.ok && p.failed == 0) v.push_back(metric_of(p, m.name));
    w.e2e[m.name] = summarize(v);
  }
  if (w.traced && w.trace.ok) {
    const double base = w.e2e["wall_s"].median;
    w.trace.layers["trace.overhead_pct"] =
        base > 0 ? 100 * (w.trace.wall_s - base) / base : 0;
  }

  // Every pass computed the same outputs: the 1-thread check pass and each
  // timed (and traced) pass at the flow's thread count.
  std::vector<const PassRecord*> all{&w.check};
  for (const PassRecord& p : w.passes) all.push_back(&p);
  if (w.traced) all.push_back(&w.trace);
  for (const PassRecord* p : all)
    if (p->ok && p->digest != w.check.digest)
      w.problems.push_back("pass digest " + p->digest +
                           " differs from the check pass's " +
                           w.check.digest);
  if (w.traced && w.trace.ok) {
    const double glue = w.trace.layers["trace.glue_pct"];
    if (glue > 5)
      w.problems.push_back("layer self times leave " + num(glue) +
                           "% of the traced pass unattributed (> 5%)");
  }
  w.correct = w.failed == 0 && w.problems.empty();
  return w;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void print_human(const WorkloadResult& w) {
  std::printf("== %s  seed %" PRIu64 "  timed passes %zu  threads %d\n",
              w.name.c_str(), w.seed, w.passes.size(), w.threads);
  std::printf("   %-12s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3",
              "unit");
  for (const bench::MetricSpec& m : end_to_end_specs()) {
    const Summary& s = w.e2e.at(m.name);
    std::printf("   %-12s %14.6f %14.6f %14.6f  %s\n", m.name, s.median, s.q1,
                s.q3, m.unit);
  }
  std::printf("   quality:");
  for (const auto& [k, v] : w.check.quality)
    std::printf(" %s=%.6g", k.c_str(), v);
  std::printf("\n   checks: %s (%ld of %ld flows failed)\n",
              w.correct ? "ok" : "FAILED", w.failed, w.attempted);
  for (const std::string& p : w.problems)
    std::printf("   problem: %s\n", p.c_str());
  if (!w.traced || !w.trace.ok) return;

  const auto& L = w.trace.layers;
  std::printf("   traced pass %.1f ms, glue %.2f%%, trace overhead %.2f%%\n",
              L.at("trace.pass_ms"), L.at("trace.glue_pct"),
              L.at("trace.overhead_pct"));
  // Layers ("module.layer_ms") by time, each followed by its sub-splits
  // ("module.layer.split_ms").
  auto is_ms = [](const std::string& k) {
    return k.size() > 3 && k.compare(k.size() - 3, 3, "_ms") == 0 &&
           k.rfind("trace.", 0) != 0 && k.rfind("module.", 0) != 0;
  };
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [k, v] : L)
    if (is_ms(k) && v > 0 && std::count(k.begin(), k.end(), '.') == 1)
      rows.push_back({v, k});
  std::sort(rows.rbegin(), rows.rend());
  const double pass = L.at("trace.pass_ms");
  for (const auto& [v, k] : rows) {
    std::printf("   %-40s %12.3f ms %7.2f%%\n", k.c_str(), v, 100 * v / pass);
    const std::string stem = k.substr(0, k.size() - 3) + ".";
    for (const auto& [sk, sv] : L)
      if (is_ms(sk) && sv > 0 && sk.rfind(stem, 0) == 0)
        std::printf("     %-38s %12.3f ms %7.2f%%\n", sk.c_str(), sv,
                    100 * sv / pass);
  }
  std::printf("   modules:");
  for (const auto& [k, v] : L)
    if (k.rfind("module.", 0) == 0 && v > 0)
      std::printf(" %s %.1f%%", k.substr(7, k.size() - 10).c_str(),
                  100 * v / pass);
  std::printf("\n");
  if (!rows.empty())
    std::printf("   dominant layer: %s (%.1f%% of the traced pass)\n",
                rows.front().second.c_str(), 100 * rows.front().first / pass);
}

std::string result_line(const std::vector<WorkloadResult>& ws, bool trace) {
  bool correct = true;
  long attempted = 0, failed = 0;
  std::string metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(name) + ": {\"value\": " + num(value) +
               ", \"unit\": " + quoted(unit) + "}";
  };
  for (const WorkloadResult& w : ws) {
    correct = correct && w.correct;
    attempted += w.attempted;
    failed += w.failed;
    const std::string prefix = ws.size() > 1 ? w.name + "." : "";
    if (trace) {
      for (const bench::MetricSpec& m : bench::per_layer_specs()) {
        const auto it = w.trace.layers.find(m.name);
        add(prefix + m.name, it == w.trace.layers.end() ? 0 : it->second,
            m.unit);
      }
    } else {
      for (const bench::MetricSpec& m : end_to_end_specs())
        add(prefix + m.name, w.e2e.at(m.name).median, m.unit);
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

std::string pass_json(const PassRecord& p) {
  std::string s = "{\"ok\": " + std::string(p.ok ? "true" : "false");
  if (!p.ok) s += ", \"error\": " + quoted(p.error);
  s += ", \"setup_s\": " + num(p.setup_s) + ", \"wall_s\": " + num(p.wall_s) +
       ", \"cpu_s\": " + num(p.cpu_s) +
       ", \"peak_rss_mb\": " + num(p.peak_rss_mb) +
       ", \"flows\": " + std::to_string(p.flows) +
       ", \"failed\": " + std::to_string(p.failed) +
       ", \"digest\": " + quoted(p.digest) + "}";
  return s;
}

/// What the numbers were measured on: the children inherit this
/// environment, TSYN_FORCE_SCALAR included.
std::string host_json() {
  const char* force = std::getenv("TSYN_FORCE_SCALAR");
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads\": " + std::to_string(flow_threads()) +
         ", \"simd_backend\": " +
         quoted(gl::to_string(gl::active_simd_backend())) +
         ", \"force_scalar\": " + quoted(force ? force : "") + "}";
}

std::string record_json(const std::vector<WorkloadResult>& ws,
                        double seconds) {
  std::string s = "{\"schema\": 1, \"host\": " + host_json() +
                  ", \"seconds\": " + num(seconds) + ", \"workloads\": [";
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const WorkloadResult& w = ws[i];
    s += i ? ",\n  " : "\n  ";
    s += "{\"name\": " + quoted(w.name) +
         ", \"seed\": " + std::to_string(w.seed) +
         ", \"correct\": " + (w.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(w.attempted) +
         ", \"failed\": " + std::to_string(w.failed) + ", \"problems\": [";
    for (std::size_t k = 0; k < w.problems.size(); ++k)
      s += (k ? ", " : "") + quoted(w.problems[k]);
    s += "], \"quality\": " + json_map(w.check.quality) +
         ", \"timed_passes\": " + std::to_string(w.passes.size()) +
         ", \"metrics\": {";
    bool first = true;
    for (const bench::MetricSpec& m : end_to_end_specs()) {
      const Summary& q = w.e2e.at(m.name);
      s += (first ? "" : ", ") + quoted(m.name) + ": {\"median\": " +
           num(q.median) + ", \"q1\": " + num(q.q1) + ", \"q3\": " +
           num(q.q3) + ", \"n\": " + std::to_string(q.n) +
           ", \"unit\": " + quoted(m.unit) + "}";
      first = false;
    }
    s += "}, \"check_pass\": " + pass_json(w.check) + ", \"passes\": [";
    for (std::size_t k = 0; k < w.passes.size(); ++k)
      s += (k ? ", " : "") + pass_json(w.passes[k]);
    s += "]";
    if (w.traced)
      s += ", \"traced_pass\": " + pass_json(w.trace) +
           ", \"trace_file\": " + quoted(w.trace_file) +
           ", \"layers\": " + json_map(w.trace.layers);
    s += "}";
  }
  return s + "\n]}\n";
}

std::uint64_t parse_u64(const std::string& opt, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0)
    usage(opt + " expects a non-negative integer (got \"" + v + "\")");
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "all", trace_dir, out_file, child, trace_file;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(opt + " needs a value");
      return argv[++i];
    };
    if (opt == "--workload") workload = value();
    else if (opt == "--seed") seed = parse_u64(opt, value());
    else if (opt == "--seconds") {
      const std::uint64_t s = parse_u64(opt, value());
      if (s < 1 || s > 3600) usage("--seconds must be 1..3600");
      seconds = static_cast<double>(s);
    } else if (opt == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      trace = v == "1";
    } else if (opt == "--trace-dir") trace_dir = value();
    else if (opt == "--out") out_file = value();
    else if (opt == "--child") child = value();
    else if (opt == "--trace-file") trace_file = value();
    else usage("unknown option " + opt);
  }
  if (workload != "all" && !bench::is_workload(workload))
    usage("unknown workload " + workload);

  if (!child.empty()) {
    if (workload == "all") usage("--child needs one --workload");
    Mode mode = Mode::kPass;
    if (child == "check") mode = Mode::kCheck;
    else if (child == "trace") mode = Mode::kTrace;
    else if (child != "pass") usage("bad --child mode " + child);
    return child_main(mode, workload, seed, trace_file);
  }
  if (seconds == 0) usage("--seconds is required");

  std::vector<std::string> names;
  if (workload == "all") names = bench::workload_names();
  else names.push_back(workload);
  std::printf("host: %s\n", host_json().c_str());
  std::vector<WorkloadResult> results;
  for (const std::string& n : names) {
    results.push_back(run_workload(n, seed, seconds, trace, trace_dir));
    print_human(results.back());
    std::fflush(stdout);
  }
  if (!out_file.empty()) {
    std::ofstream f(out_file);
    f << record_json(results, seconds);
    if (!f) std::fprintf(stderr, "error: cannot write %s\n", out_file.c_str());
  }
  std::printf("%s\n", result_line(results, trace).c_str());
  return 0;
}
