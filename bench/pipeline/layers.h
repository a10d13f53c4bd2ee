// Per-layer accounting of one traced pass.
//
// The workloads wrap every public call in a "layer/<layer>" span; the
// library's own spans nest inside them. A layer's time is the self time of
// its spans (duration minus the part covered by child spans) plus the self
// time of every library span nested inside it, except library spans that
// belong to another layer (gl.atpg.comb inside the compaction call is
// gatelevel's). The outer "pass" span's own self time is bench glue: code
// between the calls, which the reconciliation check bounds.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace tsyn::bench {

struct LayerTable {
  double pass_ms = 0;  ///< the traced pass, start to end
  double glue_ms = 0;  ///< pass time outside every layer span
  /// Layer key ("gatelevel.atpg_comb") -> self time.
  std::map<std::string, double> self_ms;
  /// Sub-splits of compaction's own time, by library span name.
  std::map<std::string, double> split_ms;
  /// Module ("gatelevel") -> summed self time of its layers.
  std::map<std::string, double> module_ms;
};

/// Builds the table from a Chrome trace_event document (util::trace_to_json)
/// holding exactly one "pass" span. Throws std::runtime_error otherwise.
LayerTable layers_from_trace(const std::string& trace_json);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. Metrics a workload does not
/// exercise read 0.
const std::vector<MetricSpec>& per_layer_specs();

/// Assembles the per-layer metrics of one traced pass: layer times from
/// `table`, work counts from the metrics registry snapshot and the
/// workload's own counts, and the pass's quality outputs.
std::map<std::string, double> per_layer_metrics(
    const LayerTable& table, const util::MetricsSnapshot& registry,
    const std::map<std::string, double>& counts,
    const std::map<std::string, double>& quality);

}  // namespace tsyn::bench
