#include "observe/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/json.h"
#include "util/text.h"

namespace tsyn::observe {

namespace {

void append_scoap_row_json(std::ostream& os, const ScoapFaultRow& row) {
  os << "{\"fault\": \"" << util::json_escape(row.label) << '"';
  os << ", \"status\": \"" << util::json_escape(row.status) << '"';
  os << ", \"cc\": " << row.cc << ", \"co\": " << row.co
     << ", \"predicted\": " << row.predicted << ", \"effort\": " << row.effort
     << ", \"predicted_rank\": " << util::fmt_double(row.predicted_rank)
     << ", \"effort_rank\": " << util::fmt_double(row.effort_rank) << "}";
}

}  // namespace

std::string report_to_json(const RunReport& r) {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"tool\": \"tsyn\",\n  \"title\": \""
     << util::json_escape(r.title) << '"';
  os << ",\n  \"design\": {\"behavior\": \""
     << util::json_escape(r.behavior) << '"';
  os << ", \"width\": " << r.width << ", \"gates\": " << r.gates
     << ", \"pis\": " << r.pis << ", \"faults\": " << r.faults << "},\n";
  os << "  \"atpg\": {\"compact\": \""
     << util::json_escape(r.compact_mode) << '"';
  os << ", \"xfill\": \"" << util::json_escape(r.xfill) << '"';
  os << ", \"fault_coverage\": " << util::fmt_double(r.fault_coverage)
     << ", \"fault_efficiency\": " << util::fmt_double(r.fault_efficiency)
     << ", \"cubes\": " << r.cubes << ", \"patterns\": " << r.patterns
     << ", \"baseline_patterns\": " << r.baseline_patterns << "},\n";
  os << "  \"ledger\": " << ledger_to_json(r.ledger) << ",\n";
  os << "  \"scoap\": {\"spearman\": " << util::fmt_double(r.scoap.spearman)
     << ", \"rows\": " << r.scoap.rows.size() << ", \"top_mispredicted\": [";
  bool first = true;
  for (int idx : r.scoap.top_mispredicted) {
    if (!first) os << ", ";
    first = false;
    append_scoap_row_json(os, r.scoap.rows[static_cast<std::size_t>(idx)]);
  }
  os << "]},\n";
  if (!r.provenance.empty())
    os << "  \"provenance\": "
       << provenance_to_json(r.provenance, r.attribution) << ",\n";
  if (r.profile_samples > 0) {
    os << "  \"profile\": {\"samples\": " << r.profile_samples
       << ", \"top\": [";
    bool first_frame = true;
    for (const ProfileFrame& f : r.profile_top) {
      if (!first_frame) os << ", ";
      first_frame = false;
      os << "{\"frame\": \"" << util::json_escape(f.name) << '"';
      os << ", \"self\": " << f.self << ", \"total\": " << f.total << "}";
    }
    os << "]},\n";
  }
  os << "  \"metrics\": "
     << (r.metrics_json.empty() ? std::string("{}") : r.metrics_json);
  os << "\n}\n";
  return os.str();
}

namespace {

// ---------------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------------

const char* const kPalette[] = {"#4269d0", "#efb118", "#ff725c", "#6cc5b0",
                                "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5"};
constexpr int kPaletteSize = 8;

/// `s` with &, <, >, " replaced by entities.
std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", v);
  return buf;
}

/// One chart per domain: every phase's curve as a stepped polyline,
/// y = cumulative detections as % of the phase's universe.
void append_waterfall_svg(std::ostream& os,
                          const std::vector<const Waterfall*>& curves,
                          const std::string& x_label) {
  constexpr double kW = 640, kH = 300;
  constexpr double kL = 56, kR = 16, kT = 16, kB = 40;
  const double plot_w = kW - kL - kR, plot_h = kH - kT - kB;
  std::int64_t x_max = 1;
  for (const Waterfall* w : curves)
    if (!w->curve.empty()) x_max = std::max(x_max, w->curve.back().index + 1);
  const auto sx = [&](double i) { return kL + i / static_cast<double>(x_max) * plot_w; };
  const auto sy = [&](double pct) { return kT + (1.0 - pct / 100.0) * plot_h; };

  os << "<svg viewBox=\"0 0 " << kW << ' ' << kH
     << "\" role=\"img\" aria-label=\"coverage waterfall\">\n";
  // Gridlines + y-axis labels at 0/25/50/75/100%.
  for (int pct = 0; pct <= 100; pct += 25) {
    const double y = sy(pct);
    os << "<line x1=\"" << kL << "\" y1=\"" << y << "\" x2=\"" << kW - kR
       << "\" y2=\"" << y << "\" stroke=\"#e0e0e0\"/>\n";
    os << "<text x=\"" << kL - 6 << "\" y=\"" << y + 4
       << "\" text-anchor=\"end\" class=\"tick\">" << pct << "%</text>\n";
  }
  // x-axis labels at 0, mid, max.
  for (const std::int64_t x : {std::int64_t{0}, x_max / 2, x_max}) {
    os << "<text x=\"" << sx(static_cast<double>(x)) << "\" y=\"" << kH - kB + 18
       << "\" text-anchor=\"middle\" class=\"tick\">" << x << "</text>\n";
  }
  os << "<text x=\"" << kL + plot_w / 2 << "\" y=\"" << kH - 6
     << "\" text-anchor=\"middle\" class=\"tick\">" << html_escape(x_label)
     << "</text>\n";

  int color = 0;
  for (const Waterfall* w : curves) {
    const char* c = kPalette[color % kPaletteSize];
    ++color;
    if (w->curve.empty()) continue;
    const double uni =
        w->universe > 0 ? static_cast<double>(w->universe)
                        : static_cast<double>(w->curve.back().detected);
    os << "<polyline fill=\"none\" stroke=\"" << c
       << "\" stroke-width=\"2\" points=\"";
    double prev_pct = 0.0;
    bool first = true;
    for (const Waterfall::Point& p : w->curve) {
      const double pct =
          uni > 0 ? 100.0 * static_cast<double>(p.detected) / uni : 0.0;
      const double x = sx(static_cast<double>(p.index));
      if (!first) os << ' ' << x << ',' << sy(prev_pct);  // step
      os << (first ? "" : " ") << x << ',' << sy(pct);
      prev_pct = pct;
      first = false;
    }
    os << ' ' << sx(static_cast<double>(x_max)) << ',' << sy(prev_pct);
    os << "\"/>\n";
  }
  os << "</svg>\n";

  // Legend.
  os << "<div class=\"legend\">";
  color = 0;
  for (const Waterfall* w : curves) {
    const char* c = kPalette[color % kPaletteSize];
    ++color;
    const double uni =
        w->universe > 0 ? static_cast<double>(w->universe) : 0.0;
    const std::int64_t det = w->curve.empty() ? 0 : w->curve.back().detected;
    os << "<span><i style=\"background:" << c << "\"></i>"
       << html_escape(w->phase_name) << " — " << det << " detected";
    if (uni > 0)
      os << " (" << fmt_pct(100.0 * static_cast<double>(det) / uni) << ")";
    os << "</span> ";
  }
  os << "</div>\n";
}

void append_kv_row(std::ostream& os, const std::string& k,
                   const std::string& v) {
  os << "<tr><th>" << html_escape(k) << "</th><td>" << html_escape(v)
     << "</td></tr>\n";
}

}  // namespace

std::string report_to_html(const RunReport& r) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>tsyn report — "
     << html_escape(r.title) << "</title>\n<style>\n"
     << "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
        "max-width:60em;padding:0 1em;color:#222}\n"
     << "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;"
        "border-bottom:1px solid #ddd;padding-bottom:.2em}\n"
     << "table{border-collapse:collapse;margin:.5em 0}\n"
     << "th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left}\n"
     << "th{background:#f5f5f5;font-weight:600}\n"
     << "td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}\n"
     << "svg{width:100%;height:auto;max-width:640px;display:block}\n"
     << ".tick{font-size:11px;fill:#666}\n"
     << ".legend span{margin-right:1.2em;white-space:nowrap}\n"
     << ".legend i{display:inline-block;width:.8em;height:.8em;"
        "margin-right:.3em;border-radius:2px}\n"
     << "code{background:#f5f5f5;padding:.1em .3em}\n"
     << "</style>\n</head>\n<body>\n";
  os << "<h1>tsyn run report — " << html_escape(r.title) << "</h1>\n";

  os << "<h2>Summary</h2>\n<table>\n";
  append_kv_row(os, "behavior", r.behavior);
  append_kv_row(os, "datapath width", std::to_string(r.width));
  append_kv_row(os, "gates", std::to_string(r.gates));
  append_kv_row(os, "primary inputs (incl. scan)", std::to_string(r.pis));
  append_kv_row(os, "collapsed faults", std::to_string(r.faults));
  append_kv_row(os, "compaction", r.compact_mode + " / xfill=" + r.xfill);
  append_kv_row(os, "fault coverage", fmt_pct(r.fault_coverage));
  append_kv_row(os, "fault efficiency", fmt_pct(r.fault_efficiency));
  append_kv_row(os, "shipped patterns",
                std::to_string(r.patterns) + " (baseline " +
                    std::to_string(r.baseline_patterns) + ", cubes " +
                    std::to_string(r.cubes) + ")");
  os << "</table>\n";

  const LedgerSnapshot& led = r.ledger;
  os << "<h2>Fault lifecycle</h2>\n<table>\n"
     << "<tr><th>status</th><th class=\"num\">faults</th></tr>\n";
  const auto status_row = [&](const char* name, std::int64_t v) {
    os << "<tr><td>" << name << "</td><td class=\"num\">" << v
       << "</td></tr>\n";
  };
  status_row("detected (by own test)", led.detected);
  status_row("dropped (detected by another fault's test)", led.dropped);
  status_row("redundant (proven untestable)", led.redundant);
  status_row("aborted (backtrack limit)", led.aborted);
  status_row("undetected", led.undetected);
  os << "</table>\n<p>Total ATPG effort: <code>" << led.total_decisions
     << "</code> decisions, <code>" << led.total_backtracks
     << "</code> backtracks; simulation moved <code>" << led.total_sim_events
     << "</code> gate events.</p>\n";

  // Waterfalls, one chart per domain.
  std::vector<const Waterfall*> pattern_curves, frame_curves;
  for (const Waterfall& w : led.waterfalls)
    (w.domain == "frame" ? frame_curves : pattern_curves).push_back(&w);
  if (!pattern_curves.empty()) {
    os << "<h2>Coverage waterfall — pattern domain</h2>\n";
    append_waterfall_svg(os, pattern_curves, "pattern index");
  }
  if (!frame_curves.empty()) {
    os << "<h2>Coverage waterfall — frame domain</h2>\n";
    append_waterfall_svg(os, frame_curves, "frame index");
  }

  // Hardest faults by recorded ATPG effort.
  std::vector<const FaultJourney*> by_effort;
  for (const FaultJourney& j : led.journeys)
    if (j.targets > 0) by_effort.push_back(&j);
  std::sort(by_effort.begin(), by_effort.end(),
            [](const FaultJourney* a, const FaultJourney* b) {
              const std::int64_t ea = a->decisions + a->backtracks;
              const std::int64_t eb = b->decisions + b->backtracks;
              if (ea != eb) return ea > eb;
              return a->key < b->key;
            });
  if (by_effort.size() > 10) by_effort.resize(10);
  if (!by_effort.empty()) {
    os << "<h2>Hardest faults (ATPG effort)</h2>\n<table>\n"
       << "<tr><th>fault (node/pin/sa)</th><th>status</th>"
          "<th class=\"num\">decisions</th><th class=\"num\">backtracks</th>"
          "<th class=\"num\">first detect</th><th class=\"num\">n-detect</th>"
          "</tr>\n";
    for (const FaultJourney* j : by_effort) {
      os << "<tr><td>" << j->key.node << '/' << j->key.pin << "/sa"
         << j->key.sa1 << "</td><td>" << html_escape(j->status)
         << "</td><td class=\"num\">" << j->decisions
         << "</td><td class=\"num\">" << j->backtracks
         << "</td><td class=\"num\">" << j->first_detect_pattern
         << "</td><td class=\"num\">" << j->n_detect << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "<h2>SCOAP effort attribution</h2>\n";
  os << "<p>Spearman rank correlation between SCOAP-predicted difficulty "
        "(CC + CO of the faulted line) and recorded PODEM effort over "
     << r.scoap.rows.size() << " targeted faults: <code>"
     << util::fmt_double(r.scoap.spearman) << "</code>.</p>\n";
  if (!r.scoap.top_mispredicted.empty()) {
    os << "<table>\n<tr><th>fault</th><th>status</th>"
          "<th class=\"num\">CC</th><th class=\"num\">CO</th>"
          "<th class=\"num\">predicted rank</th>"
          "<th class=\"num\">effort rank</th>"
          "<th class=\"num\">effort</th></tr>\n";
    for (int idx : r.scoap.top_mispredicted) {
      const ScoapFaultRow& row = r.scoap.rows[static_cast<std::size_t>(idx)];
      os << "<tr><td>" << html_escape(row.label) << "</td><td>"
         << html_escape(row.status) << "</td><td class=\"num\">" << row.cc
         << "</td><td class=\"num\">" << row.co << "</td><td class=\"num\">"
         << row.predicted_rank << "</td><td class=\"num\">" << row.effort_rank
         << "</td><td class=\"num\">" << row.effort << "</td></tr>\n";
    }
    os << "</table>\n<p>Rows are the faults SCOAP mispredicted hardest "
          "(largest rank gap either way).</p>\n";
  }

  if (!r.provenance.empty()) {
    const ProvenanceMap& pm = r.provenance;
    const ProvenanceAttribution& pa = r.attribution;
    os << "<h2>Provenance — coverage by RTL component</h2>\n";
    os << "<p>Every collapsed fault attributed to the RTL component whose "
          "expansion created the faulted gate ("
       << pm.components.size() << " components, " << pm.num_attributed()
       << " of " << pm.comp_of_node.size()
       << " nodes attributed); worst components first.</p>\n";
    std::vector<int> comp_rows = pa.worst_components;
    if (comp_rows.size() > 10) comp_rows.resize(10);
    if (!comp_rows.empty()) {
      os << "<table>\n<tr><th>component</th><th>kind</th>"
            "<th class=\"num\">faults</th><th class=\"num\">detected</th>"
            "<th class=\"num\">dropped</th><th class=\"num\">undetected</th>"
            "<th class=\"num\">aborted</th><th class=\"num\">redundant</th>"
            "<th class=\"num\">decisions</th><th class=\"num\">coverage</th>"
            "</tr>\n";
      for (int idx : comp_rows) {
        const ProvComponent& comp = pm.components[static_cast<std::size_t>(idx)];
        const ComponentCoverage& c =
            pa.components[static_cast<std::size_t>(idx)];
        os << "<tr><td>" << html_escape(comp.name) << "</td><td>"
           << to_string(comp.kind) << "</td><td class=\"num\">" << c.faults
           << "</td><td class=\"num\">" << c.detected
           << "</td><td class=\"num\">" << c.dropped
           << "</td><td class=\"num\">" << c.undetected
           << "</td><td class=\"num\">" << c.aborted
           << "</td><td class=\"num\">" << c.redundant
           << "</td><td class=\"num\">" << c.decisions
           << "</td><td class=\"num\">" << fmt_pct(100.0 * c.coverage())
           << "</td></tr>\n";
      }
      os << "</table>\n";
    }

    os << "<h2>Provenance — coverage by CDFG operation</h2>\n"
       << "<p>Component counts fanned out to the operations each component "
          "serves (weight 1/|ops| per fault, so the weighted column sums "
          "to the fault universe";
    if (pa.unattributed_faults_w > 0)
      os << "; " << util::fmt_double(pa.unattributed_faults_w)
         << " weighted faults sit in op-less components such as the "
            "controller";
    os << ").</p>\n";
    bool any_op = false;
    for (std::size_t o = 0; o < pa.ops.size(); ++o) {
      const OpCoverage& oc = pa.ops[o];
      if (oc.faults == 0) continue;
      if (!any_op) {
        os << "<table>\n<tr><th>op</th><th>source line</th>"
              "<th class=\"num\">faults (overlapping)</th>"
              "<th class=\"num\">weighted share</th>"
              "<th class=\"num\">coverage</th></tr>\n";
        any_op = true;
      }
      const std::string label =
          o < pm.op_label.size() && !pm.op_label[o].empty()
              ? pm.op_label[o]
              : "o" + std::to_string(o);
      os << "<tr><td>o" << o << "</td><td><code>" << html_escape(label)
         << "</code></td><td class=\"num\">" << oc.faults
         << "</td><td class=\"num\">" << util::fmt_double(oc.faults_w)
         << "</td><td class=\"num\">" << fmt_pct(100.0 * oc.coverage())
         << "</td></tr>\n";
    }
    if (any_op) os << "</table>\n";
  }

  if (r.profile_samples > 0) {
    os << "<h2>Sampling profile</h2>\n<p>Wall-clock span-stack samples: "
          "<code>"
       << r.profile_samples
       << "</code>. Self = samples with the span as the innermost live "
          "frame; total = samples with it anywhere on the stack.</p>\n"
          "<table>\n<tr><th>span</th><th class=\"num\">self</th>"
          "<th class=\"num\">self %</th><th class=\"num\">total</th>"
          "<th class=\"num\">total %</th></tr>\n";
    const double denom = static_cast<double>(r.profile_samples);
    for (const ProfileFrame& f : r.profile_top) {
      os << "<tr><td><code>" << html_escape(f.name)
         << "</code></td><td class=\"num\">" << f.self
         << "</td><td class=\"num\">"
         << fmt_pct(100.0 * static_cast<double>(f.self) / denom)
         << "</td><td class=\"num\">" << f.total << "</td><td class=\"num\">"
         << fmt_pct(100.0 * static_cast<double>(f.total) / denom)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "</body>\n</html>\n";
  return os.str();
}

}  // namespace tsyn::observe
