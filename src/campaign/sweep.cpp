#include "campaign/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "cdfg/benchmarks.h"
#include "cdfg/parser.h"
#include "compaction/compaction.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "observe/report.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/text.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace tsyn::campaign {

namespace {

using util::fmt_double;  // index.json
/// Journal doubles round-trip; the index re-formats them through
/// fmt_double after a parse, so journal-restored rows match fresh ones.
using util::fmt_exact;
using util::json_escape;
using util::read_file;
using util::write_file;

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The byte content a design spec's journal identity is built from:
/// benchmarks are identified by name (their construction is part of the
/// binary), files by their bytes. An unreadable file gets a deterministic
/// sentinel so the job runs, fails with the real error, and stays
/// journal-skippable until the file actually changes.
std::string design_token(const std::string& design) {
  if (design.rfind("bench:", 0) == 0) return design;
  std::string content;
  if (!read_file(design, &content)) return "<unreadable>";
  return content;
}

/// Everything that defines one job's result bytes — the journal's skip
/// criterion. Folding the manifest content hash covers every campaign
/// knob; the design token covers file edits between runs.
std::string job_spec_hash(const JobSpec& spec, const Manifest& m,
                          const std::string& token) {
  return util::Fnv1a().str("job.v1").str(m.content_hash()).str(spec.id)
      .str(spec.design).str(token).hex();
}

cdfg::Cdfg load_design(const JobSpec& spec, const std::string& token) {
  if (spec.design.rfind("bench:", 0) == 0) {
    const std::string name = spec.design.substr(6);
    for (cdfg::Cdfg& g : cdfg::standard_benchmarks())
      if (g.name() == name) return std::move(g);
    throw std::runtime_error("unknown benchmark: " + name);
  }
  if (token == "<unreadable>")
    throw std::runtime_error("cannot open design file: " + spec.design);
  return cdfg::parse_cdfg(token);
}

std::vector<cdfg::VarId> scan_vars_for(const cdfg::Cdfg& g,
                                       const std::string& policy) {
  if (policy == "mfvs") return testability::select_scan_vars_mfvs(g);
  if (policy == "loopcut") return testability::select_scan_vars_loopcut(g);
  if (policy == "boundary") return testability::select_scan_vars_boundary(g);
  if (policy == "interior") return testability::select_scan_vars_interior(g);
  throw std::runtime_error("unknown scan policy: " + policy);
}

/// A failed job still writes a (deterministic) artifact, so results/ is
/// complete and the journal's content-hash verification applies uniformly.
std::string failure_report_json(const JobSpec& spec, const std::string& err) {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"tool\": \"tsyn\",\n  \"title\": \""
     << json_escape(spec.id) << "\",\n  \"status\": \"failed\",\n"
     << "  \"error\": \"" << json_escape(err) << "\"\n}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

struct JournalEntry {
  std::string spec;    ///< job_spec_hash hex
  std::string status;  ///< "ok" | "failed"
  std::string result;  ///< report content hash hex
  std::string error;
  std::int64_t gates = 0, faults = 0, patterns = 0, cubes = 0;
  double coverage = 0, efficiency = 0, wall_ms = 0;
};

/// Failure diagnostics for the journal: the process metrics snapshot and
/// the last heartbeat line at the moment the failure was recorded. Pure
/// triage data — read_journal ignores unknown keys, so resume semantics
/// (and the journal-restore path) are untouched by its presence.
std::string failure_diagnostics_json() {
  const util::MetricsSnapshot snap = util::metrics().snapshot();
  std::ostringstream os;
  os << ",\"diag\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "" : ",") << '"' << json_escape(name) << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "" : ",") << '"' << json_escape(name)
       << "\":" << fmt_exact(v);
    first = false;
  }
  os << "},\"heartbeat\":\"" << json_escape(util::telemetry_last_line())
     << "\"}";
  return os.str();
}

/// `extra` is a pre-rendered ",\"key\":..." suffix (failure diagnostics);
/// empty for ok jobs so the common record shape is unchanged.
std::string journal_line(const JobResult& r, const std::string& extra = "") {
  std::ostringstream os;
  os << "{\"type\":\"job\",\"job\":\"" << json_escape(r.spec.id)
     << "\",\"spec\":\"" << r.result_spec_hash
     << "\",\"status\":\"" << r.status << "\",\"result\":\"" << r.result_hash
     << "\",\"gates\":" << r.gates << ",\"faults\":" << r.faults
     << ",\"patterns\":" << r.patterns << ",\"cubes\":" << r.cubes
     << ",\"coverage\":" << fmt_exact(r.coverage)
     << ",\"efficiency\":" << fmt_exact(r.efficiency)
     << ",\"wall_ms\":" << fmt_exact(r.wall_ms) << ",\"error\":\""
     << json_escape(r.error) << "\"" << extra << "}\n";
  return os.str();
}

/// Parses the journal: header manifest hash + last entry per job id.
/// Unparsable lines are skipped, not fatal: a kill mid-write tears at most
/// the trailing record, and every record is independently verified against
/// its report file's content hash before it is trusted — a corrupt line
/// can only cause a re-run, never a wrong skip.
struct JournalState {
  bool has_header = false;
  std::string manifest_hash;
  std::map<std::string, JournalEntry> jobs;
};

JournalState read_journal(const std::string& path) {
  JournalState st;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    util::Json doc;
    try {
      doc = util::Json::parse(line);
    } catch (const util::JsonParseError&) {
      continue;  // torn record from a kill; the rest of the journal stands
    }
    const util::Json* type = doc.find("type");
    if (!type || !type->is_string()) continue;
    if (type->str == "sweep") {
      const util::Json* mh = doc.find("manifest");
      if (mh && mh->is_string()) {
        st.has_header = true;
        st.manifest_hash = mh->str;
      }
      continue;
    }
    if (type->str != "job") continue;
    const util::Json* id = doc.find("job");
    if (!id || !id->is_string()) continue;
    JournalEntry e;
    auto str_of = [&](const char* key) {
      const util::Json* v = doc.find(key);
      return v && v->is_string() ? v->str : std::string();
    };
    e.spec = str_of("spec");
    e.status = str_of("status");
    e.result = str_of("result");
    e.error = str_of("error");
    e.gates = static_cast<std::int64_t>(doc.number_or("gates", 0));
    e.faults = static_cast<std::int64_t>(doc.number_or("faults", 0));
    e.patterns = static_cast<std::int64_t>(doc.number_or("patterns", 0));
    e.cubes = static_cast<std::int64_t>(doc.number_or("cubes", 0));
    e.coverage = doc.number_or("coverage", 0);
    e.efficiency = doc.number_or("efficiency", 0);
    e.wall_ms = doc.number_or("wall_ms", 0);
    st.jobs[id->str] = std::move(e);
  }
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// One job
// ---------------------------------------------------------------------------

JobResult run_one_job(const JobSpec& spec, const Manifest& m,
                      std::string* report_json) {
  JobResult r;
  r.spec = spec;
  const std::string token = design_token(spec.design);
  r.result_spec_hash = job_spec_hash(spec, m, token);
  try {
    TSYN_SPAN("sweep.job");
    const cdfg::Cdfg g = load_design(spec, token);

    hls::Synthesis syn;
    {
      TSYN_SPAN("sweep.stage.synth");
      hls::SynthesisOptions opts;
      opts.resources =
          hls::Resources{{cdfg::FuType::kAlu, spec.config.alu},
                         {cdfg::FuType::kMultiplier, spec.config.mul}};
      opts.num_steps = spec.config.steps;
      syn = hls::synthesize(g, opts);
    }

    gl::ExpandedDesign ex;
    std::vector<gl::Fault> faults;
    {
      TSYN_SPAN("sweep.stage.expand");
      rtl::Datapath& dp = syn.rtl.datapath;
      if (spec.scan == "full") {
        for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
      } else if (spec.scan != "none") {
        testability::apply_scan(g, syn.binding, scan_vars_for(g, spec.scan),
                                dp);
      }
      gl::ExpandOptions eo;
      eo.width_override = spec.width;
      // A sweep churns thousands of expansions; provenance recording is
      // the per-job explain/report flow's business, not the sweep's.
      eo.record_provenance = false;
      ex = gl::expand_datapath(dp, eo);
      faults = gl::enumerate_faults(ex.netlist);
    }

    const gl::Netlist& n = ex.netlist;
    observe::RunReport rep;
    rep.title = spec.id;
    rep.behavior = spec.design;
    rep.width = spec.width;
    rep.gates = n.gate_count();
    rep.pis = static_cast<std::int64_t>(n.primary_inputs().size());
    rep.faults = static_cast<std::int64_t>(faults.size());

    gl::FaultSimOptions sim;
    sim.num_threads = 1;  // parallelism is job-level; keep reports invariant

    if (!ex.sequential()) {
      compaction::CompactionOptions copts;
      if (!compaction::parse_compact_mode(m.compact, &copts.mode))
        throw std::runtime_error("bad compact mode: " + m.compact);
      if (!compaction::parse_xfill(m.xfill, &copts.xfill))
        throw std::runtime_error("bad xfill: " + m.xfill);
      copts.fill_seed = spec.seed;
      const compaction::CompactedCampaign c = compaction::run_compacted_atpg(
          n, faults, copts, m.backtrack_limit, sim);
      rep.compact_mode = compaction::to_string(copts.mode);
      rep.xfill = compaction::to_string(copts.xfill);
      rep.fault_coverage = c.campaign.fault_coverage;
      rep.fault_efficiency = c.campaign.fault_efficiency;
      rep.cubes = c.stats.cubes_generated;
      rep.patterns = static_cast<std::int64_t>(c.patterns.size());
      rep.baseline_patterns = c.baseline_patterns;
    } else {
      if (m.seq_fault_cap > 0 &&
          static_cast<long>(faults.size()) > m.seq_fault_cap)
        faults.resize(static_cast<std::size_t>(m.seq_fault_cap));
      const gl::SeqAtpgCampaign c = gl::run_sequential_atpg(
          n, faults, m.seq_max_frames, m.seq_backtrack_limit, sim);
      rep.compact_mode = "seq-tfe";  // time-frame expansion, no compaction
      rep.xfill = "none";
      rep.faults = static_cast<std::int64_t>(faults.size());
      rep.fault_coverage = c.fault_coverage;
      rep.fault_efficiency = c.fault_efficiency;
      // Sequential campaigns report coverage/efficiency; pattern-set size
      // is a compaction concept and stays 0 rather than an approximation.
    }

    *report_json = observe::report_to_json(rep);
    r.gates = rep.gates;
    r.faults = rep.faults;
    r.patterns = rep.patterns;
    r.cubes = rep.cubes;
    r.coverage = rep.fault_coverage;
    r.efficiency = rep.fault_efficiency;
  } catch (const std::exception& e) {
    r.status = "failed";
    r.error = e.what();
    *report_json = failure_report_json(spec, r.error);
  } catch (...) {
    r.status = "failed";
    r.error = "unknown exception";
    *report_json = failure_report_json(spec, r.error);
  }
  r.result_hash = util::Fnv1a::hash_hex(util::fnv1a(*report_json));
  return r;
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

SweepSummary run_sweep(const Manifest& m, const SweepOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  SweepSummary summary;
  summary.manifest_hash = m.content_hash();
  const std::vector<JobSpec> grid = expand_grid(m);
  summary.jobs.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) summary.jobs[i].spec = grid[i];

  const fs::path dir(opts.results_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir))
    throw SweepError("cannot create results dir " + opts.results_dir + ": " +
                     ec.message());
  const std::string journal_path = (dir / "journal.jsonl").string();

  JournalState journal;
  const bool journal_exists = fs::exists(journal_path);
  if (journal_exists) {
    if (!opts.resume)
      throw SweepError(opts.results_dir +
                       " already holds a sweep journal; pass --resume to "
                       "continue it or choose a fresh results dir");
    journal = read_journal(journal_path);
    if (journal.has_header && journal.manifest_hash != summary.manifest_hash)
      throw SweepError(
          "journal in " + opts.results_dir +
          " belongs to a different manifest (journal " +
          journal.manifest_hash + ", this manifest " + summary.manifest_hash +
          "); refusing to mix sweeps in one results dir");
  } else if (opts.resume) {
    throw SweepError("--resume: no journal found in " + opts.results_dir);
  }

  // Decide per job: satisfied by the journal (spec hash matches AND the
  // report file on disk still hashes to what the journal recorded), or
  // pending. Verification makes a half-deleted results dir self-heal.
  std::vector<int> pending;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    JobResult& r = summary.jobs[i];
    const std::string token = design_token(grid[i].design);
    const std::string spec_hash = job_spec_hash(grid[i], m, token);
    r.result_spec_hash = spec_hash;
    const auto it = journal.jobs.find(grid[i].id);
    bool satisfied = false;
    if (it != journal.jobs.end() && it->second.spec == spec_hash) {
      std::string content;
      if (read_file((dir / (grid[i].id + ".json")).string(), &content) &&
          util::Fnv1a::hash_hex(util::fnv1a(content)) == it->second.result) {
        const JournalEntry& e = it->second;
        r.status = e.status;
        r.error = e.error;
        r.gates = e.gates;
        r.faults = e.faults;
        r.patterns = e.patterns;
        r.cubes = e.cubes;
        r.coverage = e.coverage;
        r.efficiency = e.efficiency;
        r.wall_ms = e.wall_ms;
        r.result_hash = e.result;
        r.from_journal = true;
        satisfied = true;
      }
    }
    if (!satisfied) pending.push_back(static_cast<int>(i));
  }
  summary.journal_hits =
      static_cast<std::int64_t>(grid.size() - pending.size());

  if (opts.max_jobs > 0 &&
      static_cast<int>(pending.size()) > opts.max_jobs) {
    pending.resize(static_cast<std::size_t>(opts.max_jobs));
    summary.complete = false;
    for (JobResult& r : summary.jobs)
      if (!r.from_journal) r.status = "pending";
  }

  // A kill mid-write can leave the journal without a trailing newline;
  // appending straight after the torn fragment would weld it onto the next
  // record and corrupt both. Terminate the tear first.
  if (journal_exists) {
    std::ifstream probe(journal_path, std::ios::binary | std::ios::ate);
    const auto size = probe.tellg();
    char last = '\n';
    if (size > 0) {
      probe.seekg(-1, std::ios::end);
      probe.get(last);
    }
    if (last != '\n') {
      std::ofstream fix(journal_path, std::ios::binary | std::ios::app);
      fix << '\n';
    }
  }
  std::FILE* jf = std::fopen(journal_path.c_str(), "a");
  if (!jf)
    throw SweepError("cannot open journal " + journal_path + " for append");
  if (!journal_exists) {
    std::fprintf(jf, "{\"type\":\"sweep\",\"schema\":1,\"manifest\":\"%s\","
                 "\"jobs\":%zu}\n",
                 summary.manifest_hash.c_str(), grid.size());
    std::fflush(jf);
  }

  util::telemetry_set_phase("sweep");
  static util::Progress& jobs_progress = util::progress("sweep.jobs");
  jobs_progress.add_total(static_cast<std::int64_t>(pending.size()));
  util::logf(util::LogLevel::kInfo, "sweep",
             "grid %zu jobs: %zu from journal, %zu to run",
             grid.size(), grid.size() - pending.size(), pending.size());

  std::mutex io_mu;
  util::ThreadPool& pool = util::ThreadPool::shared();
  const int threads =
      opts.threads > 0 ? opts.threads : pool.max_parallelism();
  pool.run(static_cast<int>(pending.size()), threads, [&](int k, int) {
    const int i = pending[static_cast<std::size_t>(k)];
    const JobSpec& spec = grid[static_cast<std::size_t>(i)];
    const Clock::time_point jt0 = Clock::now();
    std::string report;
    JobResult r = run_one_job(spec, m, &report);
    r.wall_ms = ms_since(jt0);
    const std::string path = (dir / (spec.id + ".json")).string();
    if (!write_file(path, report)) {
      // An unwritable report is a job failure, not a sweep failure: the
      // journal records it (unverifiable, so a resume retries it).
      r.status = "failed";
      r.error = "cannot write " + path;
    }
    // Snapshot diagnostics outside the io lock; only failed records pay.
    const std::string diag =
        r.status == "failed" ? failure_diagnostics_json() : std::string();
    {
      std::lock_guard<std::mutex> lk(io_mu);
      const std::string line = journal_line(r, diag);
      std::fwrite(line.data(), 1, line.size(), jf);
      std::fflush(jf);
      summary.jobs[static_cast<std::size_t>(i)] = std::move(r);
    }
    util::logf(util::LogLevel::kInfo, "sweep", "job %s: %s cov=%.2f%%",
               spec.id.c_str(),
               summary.jobs[static_cast<std::size_t>(i)].status.c_str(),
               100 * summary.jobs[static_cast<std::size_t>(i)].coverage);
    jobs_progress.add(1);
  });
  std::fclose(jf);

  summary.ran = static_cast<std::int64_t>(pending.size());
  for (const JobResult& r : summary.jobs)
    if (r.status == "failed") ++summary.failed;
  summary.wall_ms = ms_since(t0);

  if (summary.complete) {
    if (!write_file((dir / "index.json").string(), index_to_json(summary)))
      throw SweepError("cannot write index.json in " + opts.results_dir);
    if (!write_file((dir / "sweep_stats.json").string(),
                    sweep_stats_to_json(summary)))
      throw SweepError("cannot write sweep_stats.json in " + opts.results_dir);
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

std::string index_to_json(const SweepSummary& s) {
  // "schema"/"seed" keep the index bench_diff-compatible; the seed slot
  // carries the manifest identity (low 32 bits, exact in a double) so a
  // baseline from a different manifest is rejected up front.
  std::uint64_t manifest_bits = 0;
  for (char c : s.manifest_hash) {
    manifest_bits <<= 4;
    manifest_bits |= static_cast<std::uint64_t>(
        c <= '9' ? c - '0' : c - 'a' + 10);
  }
  std::ostringstream os;
  os << "{\n  \"schema\": 2,\n  \"seed\": " << (manifest_bits & 0xFFFFFFFFu)
     << ",\n  \"manifest\": \"" << s.manifest_hash << "\",\n  \"jobs\": [";
  // The mean runs over every job, a failed one counting its zero coverage,
  // so a job that recovers can only raise it.
  double cov_sum = 0;
  std::int64_t ok = 0;
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    const JobResult& r = s.jobs[i];
    cov_sum += r.coverage;
    if (r.status == "ok") ++ok;
    os << (i ? ",\n    " : "\n    ") << "{\"case\": \""
       << json_escape(r.spec.id) << "\", \"design\": \""
       << json_escape(r.spec.design) << "\", \"config\": \""
       << json_escape(r.spec.config.name) << "\", \"scan\": \"" << r.spec.scan
       << "\", \"width\": " << r.spec.width << ", \"job_seed\": " << r.spec.seed
       << ", \"status\": \"" << r.status << "\", \"gates\": " << r.gates
       << ", \"faults\": " << r.faults
       << ", \"coverage\": " << fmt_double(r.coverage)
       << ", \"efficiency\": " << fmt_double(r.efficiency)
       << ", \"patterns\": " << r.patterns << ", \"cubes\": " << r.cubes
       << ", \"wall_ms\": " << fmt_double(r.wall_ms) << ", \"error\": \""
       << json_escape(r.error) << "\"}";
  }
  os << "\n  ],\n  \"summary\": {\"jobs\": " << s.jobs.size()
     << ", \"jobs_ok\": " << ok << ", \"jobs_failed\": " << s.failed
     << ", \"mean_coverage\": "
     << fmt_double(s.jobs.empty()
                       ? 0.0
                       : cov_sum / static_cast<double>(s.jobs.size()))
     << "}\n}\n";
  return os.str();
}

std::string strip_timing(const std::string& index_json) {
  static const std::string kKey = "\"wall_ms\": ";
  std::string out;
  out.reserve(index_json.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t at = index_json.find(kKey, pos);
    if (at == std::string::npos) {
      out.append(index_json, pos, std::string::npos);
      return out;
    }
    const std::size_t val = at + kKey.size();
    std::size_t end = val;
    while (end < index_json.size() &&
           (std::isdigit(static_cast<unsigned char>(index_json[end])) ||
            index_json[end] == '.' || index_json[end] == '-' ||
            index_json[end] == '+' || index_json[end] == 'e' ||
            index_json[end] == 'E'))
      ++end;
    out.append(index_json, pos, val - pos);
    out += "0";
    pos = end;
  }
}

std::string sweep_stats_to_json(const SweepSummary& s) {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"manifest\": \"" << s.manifest_hash
     << "\",\n  \"jobs\": " << s.jobs.size() << ",\n  \"ran\": " << s.ran
     << ",\n  \"journal_hits\": " << s.journal_hits
     << ",\n  \"failed\": " << s.failed
     << ",\n  \"wall_ms\": " << fmt_double(s.wall_ms) << "\n}\n";
  return os.str();
}

}  // namespace tsyn::campaign
