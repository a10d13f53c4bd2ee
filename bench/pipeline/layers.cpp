#include "layers.h"

#include <algorithm>
#include <stdexcept>

#include "util/json.h"

namespace tsyn::bench {
namespace {

constexpr const char kLayerPrefix[] = "layer/";

/// Library spans that belong to a different layer than the call they run
/// under.
const std::map<std::string, std::string>& reassigned() {
  static const std::map<std::string, std::string> m{
      {"gl.atpg.comb", "gatelevel.atpg_comb"},
  };
  return m;
}

/// Library spans that split compaction's own time.
bool is_split(const std::string& name) {
  return name == "compaction.detection_matrix" ||
         name == "compaction.merge" || name == "compaction.topup" ||
         name == "compaction.final_grade";
}

struct Span {
  std::string name;
  double ts = 0, dur = 0;  ///< microseconds
  double child_us = 0;
  std::string owner;       ///< layer key
  std::string split;       ///< enclosing sub-split, if any
};

}  // namespace

LayerTable layers_from_trace(const std::string& trace_json) {
  const util::Json doc = util::Json::parse(trace_json);
  const util::Json* events = doc.find("traceEvents");
  if (!events || !events->is_array())
    throw std::runtime_error("trace has no traceEvents array");

  std::vector<Span> all;
  double pass_tid = -1;
  for (const util::Json& e : events->arr) {
    const util::Json* name = e.find("name");
    if (!name || !name->is_string()) continue;
    if (name->str == "pass") {
      if (pass_tid >= 0) throw std::runtime_error("trace has two passes");
      pass_tid = e.number_or("tid", -1);
    }
  }
  if (pass_tid < 0) throw std::runtime_error("trace has no pass span");
  // Worker-thread spans run concurrently with the caller's; the caller's
  // thread alone carries the pass's wall time.
  for (const util::Json& e : events->arr) {
    if (e.number_or("tid", -1) != pass_tid) continue;
    Span s;
    s.name = e.find("name")->str;
    s.ts = e.number_or("ts", 0);
    s.dur = e.number_or("dur", 0);
    all.push_back(std::move(s));
  }
  // Parents before children: earlier start first, longer span on ties.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
  });
  // trace_to_json prints six significant digits, so nesting is decided
  // with a tolerance of a few units in the last place.
  double tol = 1;
  for (const Span& s : all) tol = std::max(tol, 3e-5 * (s.ts + s.dur));

  LayerTable t;
  std::vector<Span*> stack;
  for (Span& s : all) {
    while (!stack.empty() && s.ts >= stack.back()->ts + stack.back()->dur - tol)
      stack.pop_back();
    Span* parent = stack.empty() ? nullptr : stack.back();
    if (s.name == "pass") {
      s.owner = "";
    } else if (s.name.rfind(kLayerPrefix, 0) == 0) {
      s.owner = s.name.substr(sizeof(kLayerPrefix) - 1);
    } else if (auto it = reassigned().find(s.name); it != reassigned().end()) {
      s.owner = it->second;
    } else {
      s.owner = parent ? parent->owner : "";
    }
    if (parent && parent->owner == s.owner) s.split = parent->split;
    if (s.owner == "compaction.self" && is_split(s.name)) s.split = s.name;
    if (parent) parent->child_us += s.dur;
    stack.push_back(&s);
  }

  bool seen_pass = false;
  for (const Span& s : all) {
    const double self = std::max(0.0, s.dur - s.child_us) / 1e3;
    if (s.name == "pass") {
      seen_pass = true;
      t.pass_ms = s.dur / 1e3;
      t.glue_ms += self;
      continue;
    }
    if (s.owner.empty()) continue;  // outside the pass (none expected)
    t.self_ms[s.owner] += self;
    if (!s.split.empty()) t.split_ms[s.split] += self;
    t.module_ms[s.owner.substr(0, s.owner.find('.'))] += self;
  }
  if (!seen_pass) throw std::runtime_error("trace has no pass span");
  return t;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs{
      // Layer self times.
      {"cdfg.parse_ms", "ms"},
      {"hls.list_schedule_ms", "ms"},
      {"hls.fds_schedule_ms", "ms"},
      {"hls.binding_ms", "ms"},
      {"hls.build_rtl_ms", "ms"},
      {"hls.synthesize_ms", "ms"},
      {"testability.behavior_ms", "ms"},
      {"testability.scan_select_ms", "ms"},
      {"testability.loop_avoid_ms", "ms"},
      {"testability.apply_scan_ms", "ms"},
      {"bist.tfb_ms", "ms"},
      {"bist.xtfb_ms", "ms"},
      {"bist.sessions_ms", "ms"},
      {"rtl.analysis_ms", "ms"},
      {"gatelevel.expand_ms", "ms"},
      {"gatelevel.lower_ms", "ms"},
      {"gatelevel.enumerate_faults_ms", "ms"},
      {"gatelevel.atpg_comb_ms", "ms"},
      {"gatelevel.atpg_seq_ms", "ms"},
      {"gatelevel.faultsim_comb_ms", "ms"},
      {"gatelevel.faultsim_seq_ms", "ms"},
      {"gatelevel.lfsr_ms", "ms"},
      {"compaction.self_ms", "ms"},
      {"compaction.self.detection_matrix_ms", "ms"},
      {"compaction.self.merge_ms", "ms"},
      {"compaction.self.topup_ms", "ms"},
      {"compaction.self.final_grade_ms", "ms"},
      {"compaction.ship_grade_ms", "ms"},
      {"observe.annotate_ms", "ms"},
      {"observe.ledger_reset_ms", "ms"},
      {"observe.ledger_snapshot_ms", "ms"},
      {"observe.scoap_ms", "ms"},
      {"observe.attribution_ms", "ms"},
      {"observe.report_json_ms", "ms"},
      // Per-module sums of the layer times above.
      {"module.cdfg_ms", "ms"},
      {"module.hls_ms", "ms"},
      {"module.testability_ms", "ms"},
      {"module.bist_ms", "ms"},
      {"module.rtl_ms", "ms"},
      {"module.gatelevel_ms", "ms"},
      {"module.compaction_ms", "ms"},
      {"module.observe_ms", "ms"},
      // The trace itself.
      {"trace.pass_ms", "ms"},
      {"trace.glue_pct", "%"},
      {"trace.overhead_pct", "%"},
      // Work counts.
      {"gatelevel.gates", "count"},
      {"gatelevel.faults", "count"},
      {"gatelevel.atpg_comb.decisions", "count"},
      {"gatelevel.atpg_comb.backtracks", "count"},
      {"gatelevel.atpg_comb.aborted", "count"},
      {"gatelevel.atpg_comb.backtracks_per_target", "ratio"},
      {"gatelevel.faultsim.events", "count"},
      {"gatelevel.faultsim.faults_simulated", "count"},
      {"gatelevel.faultsim.detect_ratio", "ratio"},
      {"compaction.cubes_in", "count"},
      {"compaction.topup_patterns", "count"},
      {"compaction.patterns_pruned", "count"},
      {"observe.ledger_events", "count"},
      {"observe.report_bytes", "bytes"},
      {"gatelevel.atpg_seq.backtracks", "count"},
      {"gatelevel.atpg_seq.abort_ratio", "ratio"},
      {"gatelevel.faultsim_seq.events", "count"},
      {"gatelevel.faultsim_seq.frames_simulated", "count"},
      // Quality outputs (exact for a given seed).
      {"quality.fault_coverage", "ratio"},
      {"quality.fault_efficiency", "ratio"},
      {"quality.pattern_coverage", "ratio"},
      {"quality.seq_atpg_fault_coverage", "ratio"},
      {"quality.seq_atpg_fault_efficiency", "ratio"},
      {"quality.lfsr_fault_coverage", "ratio"},
      {"quality.seq_fault_coverage", "ratio"},
      {"quality.patterns", "count"},
      {"quality.scan_regs", "count"},
      {"quality.mfvs_scan_regs", "count"},
      {"quality.assignment_loops", "count"},
      {"quality.test_sessions", "count"},
      {"quality.area_ge", "GE"},
      {"quality.seq_aborted", "count"},
  };
  return specs;
}

std::map<std::string, double> per_layer_metrics(
    const LayerTable& table, const util::MetricsSnapshot& registry,
    const std::map<std::string, double>& counts,
    const std::map<std::string, double>& quality) {
  std::map<std::string, double> m;
  for (const MetricSpec& s : per_layer_specs()) m[s.name] = 0;

  for (const auto& [layer, ms] : table.self_ms) m[layer + "_ms"] = ms;
  // "compaction.topup" -> "compaction.self.topup_ms".
  for (const auto& [span, ms] : table.split_ms)
    m["compaction.self" + span.substr(span.find('.')) + "_ms"] = ms;
  for (const auto& [module, ms] : table.module_ms)
    m["module." + module + "_ms"] = ms;
  m["trace.pass_ms"] = table.pass_ms;
  m["trace.glue_pct"] =
      table.pass_ms > 0 ? 100 * table.glue_ms / table.pass_ms : 0;

  auto counter = [&](const char* name) -> double {
    auto it = registry.counters.find(name);
    return it == registry.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  m["gatelevel.atpg_comb.decisions"] = counter("atpg.comb.decisions");
  m["gatelevel.atpg_comb.backtracks"] = counter("atpg.comb.backtracks");
  m["gatelevel.atpg_comb.aborted"] = counter("atpg.comb.aborted");
  m["gatelevel.atpg_comb.backtracks_per_target"] =
      ratio(counter("atpg.comb.backtracks"),
            counter("atpg.comb.detected") + counter("atpg.comb.untestable") +
                counter("atpg.comb.aborted"));
  m["gatelevel.faultsim.events"] = counter("faultsim.ppsfp.events");
  m["gatelevel.faultsim.faults_simulated"] =
      counter("faultsim.ppsfp.faults_simulated");
  m["gatelevel.faultsim.detect_ratio"] =
      ratio(counter("faultsim.ppsfp.faults_detected"),
            counter("faultsim.ppsfp.faults_simulated"));
  m["compaction.cubes_in"] = counter("compaction.cubes_in");
  m["compaction.topup_patterns"] = counter("compaction.topup_patterns");
  m["compaction.patterns_pruned"] = counter("compaction.patterns_pruned");
  m["gatelevel.atpg_seq.backtracks"] = counter("atpg.seq.backtracks");
  m["gatelevel.atpg_seq.abort_ratio"] =
      ratio(counter("atpg.seq.aborted"),
            counter("atpg.seq.detected") + counter("atpg.seq.untestable") +
                counter("atpg.seq.aborted"));
  m["gatelevel.faultsim_seq.events"] = counter("faultsim.seq.events");
  m["gatelevel.faultsim_seq.frames_simulated"] =
      counter("faultsim.seq.frames_simulated");
  for (const auto& [name, v] : counts) m[name] = v;

  for (const auto& [name, v] : quality) m["quality." + name] = v;
  // A span or count the table does not declare would be dropped silently.
  if (m.size() != per_layer_specs().size())
    for (const auto& [name, v] : m)
      if (std::none_of(per_layer_specs().begin(), per_layer_specs().end(),
                       [&](const MetricSpec& s) { return name == s.name; }))
        throw std::logic_error("undeclared per-layer metric " + name);
  return m;
}

}  // namespace tsyn::bench
