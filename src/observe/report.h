// Self-contained run reports: one JSON artifact (and optionally one HTML
// page) consolidating everything a test-generation run produced — design
// numbers, ATPG/compaction results, the fault-lifecycle ledger with its
// coverage waterfalls, SCOAP effort attribution, and the metrics registry.
//
// The HTML renderer inlines all CSS and draws the waterfall curves as
// inline SVG, so the page opens from file:// with no network and no
// external assets — it can be attached to a CI run or mailed around as a
// single file.
#pragma once

#include <string>
#include <vector>

#include "observe/ledger.h"
#include "observe/provenance.h"
#include "observe/scoap_attr.h"

namespace tsyn::observe {

/// Everything a report consolidates. The caller (tsyn_cli report, or a
/// test) runs the pipeline with the ledger enabled and fills this in.
struct RunReport {
  std::string title;          ///< e.g. "diffeq w4 static"
  std::string behavior;       ///< benchmark / source spec
  std::string compact_mode;   ///< off | static | dynamic | full
  std::string xfill;          ///< random | zero | one | repeat
  int width = 0;              ///< datapath bit width
  std::int64_t gates = 0;
  std::int64_t pis = 0;       ///< primary inputs incl. scan cells
  std::int64_t faults = 0;    ///< collapsed fault universe
  double fault_coverage = 0.0;
  double fault_efficiency = 0.0;
  std::int64_t cubes = 0;               ///< pre-merge test cubes
  std::int64_t patterns = 0;            ///< shipped pattern count
  std::int64_t baseline_patterns = 0;   ///< uncompacted reference
  LedgerSnapshot ledger;
  ScoapAttribution scoap;
  /// Cross-layer provenance: the gate->component->op map recorded during
  /// expansion and its ledger join. Leave the map empty (the default) when
  /// the pipeline ran with record_provenance off — the report then simply
  /// omits the provenance section.
  ProvenanceMap provenance;
  ProvenanceAttribution attribution;
  std::string metrics_json;  ///< util::metrics().to_json(), embedded raw
};

/// The consolidated JSON artifact:
///   {"schema": 1, "tool": "tsyn", "title": ..., "design": {...},
///    "atpg": {...}, "ledger": {...}, "scoap": {...},
///    "provenance": {...}, "metrics": {...}}
/// `ledger` embeds ledger_to_json(report.ledger) verbatim and
/// `provenance` embeds provenance_to_json (present only when the map was
/// recorded), so the determinism contracts carry through.
std::string report_to_json(const RunReport& r);

/// Self-contained HTML rendering of the same data.
std::string report_to_html(const RunReport& r);

}  // namespace tsyn::observe
