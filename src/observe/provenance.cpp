#include "observe/provenance.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "observe/ledger.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/text.h"
#include "util/trace.h"

namespace tsyn::observe {

const char* to_string(CompKind k) {
  switch (k) {
    case CompKind::kController: return "controller";
    case CompKind::kPrimaryInput: return "input";
    case CompKind::kConstant: return "constant";
    case CompKind::kRegister: return "register";
    case CompKind::kRegMux: return "reg-mux";
    case CompKind::kFu: return "fu";
    case CompKind::kFuMux: return "fu-mux";
  }
  return "?";
}

int ProvenanceMap::find(CompKind kind, int index, int port) const {
  for (std::size_t i = 0; i < components.size(); ++i) {
    const ProvComponent& c = components[i];
    if (c.kind == kind && c.index == index && c.port == port)
      return static_cast<int>(i);
  }
  return -1;
}

std::int64_t ProvenanceMap::num_attributed() const {
  std::int64_t n = 0;
  for (std::int32_t c : comp_of_node) n += c >= 0;
  return n;
}

int ProvenanceMap::num_ops() const {
  int max_op = -1;
  for (const ProvComponent& c : components)
    for (cdfg::OpId o : c.ops) max_op = std::max(max_op, o);
  return max_op + 1;
}

namespace {

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void append(std::vector<int>& dst, const std::vector<int>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace

ProvenanceMap make_component_map(const rtl::Datapath& dp,
                                 bool with_controller) {
  ProvenanceMap map;
  const int num_regs = dp.num_regs();
  const int num_fus = dp.num_fus();

  // Writers per register: the ops whose results its drivers carry, as
  // recorded by hls::build_rtl. Mis-sized cross references (post-build
  // driver edits) degrade to empty.
  std::vector<std::vector<int>> writers(num_regs);
  for (int r = 0; r < num_regs; ++r) {
    const rtl::RegisterInfo& reg = dp.regs[r];
    const std::size_t nd =
        std::min(reg.drivers.size(), reg.driver_ops.size());
    for (std::size_t d = 0; d < nd; ++d)
      append(writers[r], reg.driver_ops[d]);
  }

  // Readers per register / pad / constant: the ops that consume the value
  // through an FU operand port or a register copy driver.
  std::vector<std::vector<int>> readers(num_regs);
  std::vector<std::vector<int>> pi_ops(dp.primary_inputs.size());
  std::vector<std::vector<int>> const_ops(dp.constants.size());
  auto credit_source = [&](const rtl::Source& s,
                           const std::vector<int>& ops) {
    switch (s.kind) {
      case rtl::Source::Kind::kRegister: append(readers[s.index], ops); break;
      case rtl::Source::Kind::kPrimaryInput:
        append(pi_ops[s.index], ops);
        break;
      case rtl::Source::Kind::kConstant: append(const_ops[s.index], ops); break;
      case rtl::Source::Kind::kFu: break;  // FU chaining: owns its own ops
    }
  };
  for (int f = 0; f < num_fus; ++f) {
    const rtl::FuInfo& fu = dp.fus[f];
    for (std::size_t p = 0; p < fu.port_drivers.size(); ++p)
      for (std::size_t d = 0; d < fu.port_drivers[p].size(); ++d) {
        const bool recorded = p < fu.port_driver_ops.size() &&
                              d < fu.port_driver_ops[p].size();
        credit_source(fu.port_drivers[p][d],
                      recorded ? fu.port_driver_ops[p][d] : fu.ops);
      }
  }
  for (int r = 0; r < num_regs; ++r) {
    const rtl::RegisterInfo& reg = dp.regs[r];
    const std::size_t nd =
        std::min(reg.drivers.size(), reg.driver_ops.size());
    for (std::size_t d = 0; d < nd; ++d)
      credit_source(reg.drivers[d], reg.driver_ops[d]);
  }
  // An input pad additionally serves everything done with the registers it
  // reloads — a fault on the pad corrupts the value those ops consume.
  for (int r = 0; r < num_regs; ++r)
    for (const rtl::Source& s : dp.regs[r].drivers)
      if (s.kind == rtl::Source::Kind::kPrimaryInput) {
        append(pi_ops[s.index], readers[r]);
        append(pi_ops[s.index], writers[r]);
      }

  auto add = [&](CompKind kind, int index, int port, std::string name,
                 std::vector<int> ops, std::vector<int> vars = {}) {
    sort_unique(ops);
    sort_unique(vars);
    map.components.push_back(
        {kind, index, port, std::move(name), std::move(ops),
         std::move(vars)});
  };

  if (with_controller) add(CompKind::kController, -1, -1, "ctl", {});
  for (std::size_t i = 0; i < dp.primary_inputs.size(); ++i)
    add(CompKind::kPrimaryInput, static_cast<int>(i), -1,
        dp.primary_inputs[i].name, pi_ops[i]);
  for (std::size_t c = 0; c < dp.constants.size(); ++c)
    add(CompKind::kConstant, static_cast<int>(c), -1, dp.constants[c].name,
        const_ops[c]);
  for (int r = 0; r < num_regs; ++r) {
    std::vector<int> ops = writers[r];
    append(ops, readers[r]);
    add(CompKind::kRegister, r, -1, dp.regs[r].name, std::move(ops),
        dp.regs[r].vars);
  }
  for (int r = 0; r < num_regs; ++r) {
    if (dp.regs[r].drivers.empty()) continue;  // no input mux built
    // The mux routes the writers' results; an unwritten-but-muxed register
    // falls back to the register's full op set.
    std::vector<int> ops = writers[r];
    if (ops.empty()) {
      ops = readers[r];
    }
    add(CompKind::kRegMux, r, -1, dp.regs[r].name + ".in", std::move(ops));
  }
  for (int f = 0; f < num_fus; ++f)
    add(CompKind::kFu, f, -1, dp.fus[f].name, dp.fus[f].ops);
  for (int f = 0; f < num_fus; ++f) {
    const rtl::FuInfo& fu = dp.fus[f];
    for (std::size_t p = 0; p < fu.port_drivers.size(); ++p) {
      if (fu.port_drivers[p].size() <= 1) continue;  // no mux tree built
      std::vector<int> ops;
      if (p < fu.port_driver_ops.size())
        for (const auto& dops : fu.port_driver_ops[p]) append(ops, dops);
      if (ops.empty()) ops = fu.ops;
      add(CompKind::kFuMux, f, static_cast<int>(p),
          fu.name + ".p" + std::to_string(p), std::move(ops));
    }
  }
  return map;
}

void annotate_ops(ProvenanceMap& map, const cdfg::Cdfg& g,
                  const std::vector<int>* step_of_op) {
  map.op_label.assign(static_cast<std::size_t>(map.num_ops()), "");
  for (const ProvComponent& c : map.components)
    for (cdfg::OpId o : c.ops) {
      if (o < 0 || o >= g.num_ops()) continue;
      std::string& label = map.op_label[static_cast<std::size_t>(o)];
      if (!label.empty()) continue;
      const cdfg::Operation& op = g.op(o);
      std::ostringstream os;
      os << (op.name.empty() ? "o" + std::to_string(op.id) : op.name) << ' '
         << g.var(op.output).name << " = " << cdfg::to_string(op.kind) << '(';
      for (std::size_t i = 0; i < op.inputs.size(); ++i)
        os << (i ? ", " : "") << g.var(op.inputs[i]).name;
      os << ')';
      if (op.guard >= 0)
        os << (op.guard_polarity ? " if " : " if !") << g.var(op.guard).name;
      if (step_of_op && o < static_cast<int>(step_of_op->size()))
        os << " @s" << (*step_of_op)[static_cast<std::size_t>(o)];
      label = os.str();
    }
}

ProvenanceAttribution attribute_coverage(const ProvenanceMap& map,
                                         const LedgerSnapshot& ledger) {
  TSYN_SPAN("observe.attr_join");
  ProvenanceAttribution attr;
  attr.components.resize(map.components.size());
  attr.ops.resize(static_cast<std::size_t>(map.num_ops()));

  for (const FaultJourney& j : ledger.journeys) {
    ++attr.total_faults;
    const bool covered = j.status == FaultStatus::kDetected ||
                         j.status == FaultStatus::kDropped;
    attr.total_covered += covered;
    const int comp = map.component_of(j.key.node);
    if (comp < 0) {
      ++attr.orphan_faults;
      continue;
    }
    ComponentCoverage& c = attr.components[static_cast<std::size_t>(comp)];
    ++c.faults;
    switch (j.status) {
      case FaultStatus::kDetected: ++c.detected; break;
      case FaultStatus::kDropped: ++c.dropped; break;
      case FaultStatus::kRedundant: ++c.redundant; break;
      case FaultStatus::kAborted: ++c.aborted; break;
      case FaultStatus::kUndetected: ++c.undetected; break;
    }
    c.decisions += j.decisions;
    c.backtracks += j.backtracks;
    c.sim_events += j.sim_events;
  }

  // Fan each component's exact counts out to its ops with equal weights;
  // op-less components (the controller) pool into the unattributed bucket
  // so the weighted mass still sums to the global totals.
  for (std::size_t i = 0; i < map.components.size(); ++i) {
    const ProvComponent& comp = map.components[i];
    const ComponentCoverage& c = attr.components[i];
    if (c.faults == 0) continue;
    const std::int64_t cov = c.detected + c.dropped;
    if (comp.ops.empty()) {
      attr.unattributed_faults_w += static_cast<double>(c.faults);
      attr.unattributed_covered_w += static_cast<double>(cov);
      continue;
    }
    const double w = 1.0 / static_cast<double>(comp.ops.size());
    for (cdfg::OpId o : comp.ops) {
      OpCoverage& oc = attr.ops[static_cast<std::size_t>(o)];
      oc.faults += c.faults;
      oc.covered += cov;
      oc.faults_w += static_cast<double>(c.faults) * w;
      oc.covered_w += static_cast<double>(cov) * w;
    }
  }

  for (std::size_t i = 0; i < attr.components.size(); ++i)
    if (attr.components[i].faults > 0)
      attr.worst_components.push_back(static_cast<int>(i));
  std::sort(attr.worst_components.begin(), attr.worst_components.end(),
            [&](int a, int b) {
              const ComponentCoverage& ca =
                  attr.components[static_cast<std::size_t>(a)];
              const ComponentCoverage& cb =
                  attr.components[static_cast<std::size_t>(b)];
              if (ca.coverage() != cb.coverage())
                return ca.coverage() < cb.coverage();
              if (ca.faults != cb.faults) return ca.faults > cb.faults;
              return a < b;
            });

  util::metrics().gauge("tsyn.provenance.entries")
      .set(static_cast<double>(map.num_attributed()));
  static util::Histogram& join_hist =
      util::metrics().histogram("provenance.attr.join");
  for (const ComponentCoverage& c : attr.components)
    if (c.faults > 0) join_hist.observe(c.faults);
  return attr;
}

std::string provenance_to_json(const ProvenanceMap& map,
                               const ProvenanceAttribution& attr) {
  std::ostringstream os;
  os << "{\n    \"schema\": 1,\n    \"summary\": {\"components\": "
     << map.components.size()
     << ", \"nodes\": " << map.comp_of_node.size()
     << ", \"attributed_nodes\": " << map.num_attributed()
     << ", \"faults\": " << attr.total_faults
     << ", \"covered\": " << attr.total_covered
     << ", \"orphans\": " << attr.orphan_faults
     << ", \"unattributed_faults_w\": "
     << util::fmt_double(attr.unattributed_faults_w)
     << ", \"unattributed_covered_w\": "
     << util::fmt_double(attr.unattributed_covered_w) << "},\n"
     << "    \"components\": [";
  for (std::size_t i = 0; i < map.components.size(); ++i) {
    const ProvComponent& comp = map.components[i];
    const ComponentCoverage& c = attr.components[i];
    os << (i ? ",\n      " : "\n      ") << "{\"name\": ";
    os << '"' << util::json_escape(comp.name) << '"';
    os << ", \"kind\": \"" << to_string(comp.kind) << "\", \"ops\": [";
    for (std::size_t k = 0; k < comp.ops.size(); ++k)
      os << (k ? ", " : "") << comp.ops[k];
    os << "], \"faults\": " << c.faults << ", \"detected\": " << c.detected
       << ", \"dropped\": " << c.dropped << ", \"redundant\": " << c.redundant
       << ", \"aborted\": " << c.aborted
       << ", \"undetected\": " << c.undetected
       << ", \"decisions\": " << c.decisions
       << ", \"backtracks\": " << c.backtracks
       << ", \"sim_events\": " << c.sim_events
       << ", \"coverage\": " << util::fmt_double(c.coverage()) << "}";
  }
  os << (map.components.empty() ? "]" : "\n    ]") << ",\n    \"ops\": [";
  bool first = true;
  for (std::size_t o = 0; o < attr.ops.size(); ++o) {
    const OpCoverage& oc = attr.ops[o];
    if (oc.faults == 0) continue;  // never referenced or never faulted
    os << (first ? "\n      " : ",\n      ") << "{\"op\": " << o;
    if (o < map.op_label.size() && !map.op_label[o].empty()) {
      os << ", \"label\": \"" << util::json_escape(map.op_label[o]) << '"';
    }
    os << ", \"faults\": " << oc.faults << ", \"covered\": " << oc.covered
       << ", \"faults_w\": " << util::fmt_double(oc.faults_w)
       << ", \"covered_w\": " << util::fmt_double(oc.covered_w)
       << ", \"coverage\": " << util::fmt_double(oc.coverage()) << "}";
    first = false;
  }
  os << (first ? "]" : "\n    ]") << ",\n    \"worst_components\": [";
  for (std::size_t i = 0; i < attr.worst_components.size(); ++i)
    os << (i ? ", " : "") << attr.worst_components[i];
  os << "]\n  }";
  return os.str();
}

namespace {

std::vector<double> merged_heat(const ProvenanceMap& map,
                                const ProvenanceAttribution& attr, int count,
                                CompKind main_kind, CompKind mux_kind) {
  std::vector<std::int64_t> faults(static_cast<std::size_t>(count), 0);
  std::vector<std::int64_t> covered(static_cast<std::size_t>(count), 0);
  for (std::size_t i = 0; i < map.components.size(); ++i) {
    const ProvComponent& comp = map.components[i];
    if (comp.kind != main_kind && comp.kind != mux_kind) continue;
    if (comp.index < 0 || comp.index >= count) continue;
    const ComponentCoverage& c = attr.components[i];
    faults[static_cast<std::size_t>(comp.index)] += c.faults;
    covered[static_cast<std::size_t>(comp.index)] +=
        c.detected + c.dropped;
  }
  std::vector<double> heat(static_cast<std::size_t>(count), -1.0);
  for (int i = 0; i < count; ++i)
    if (faults[static_cast<std::size_t>(i)] > 0)
      heat[static_cast<std::size_t>(i)] =
          static_cast<double>(covered[static_cast<std::size_t>(i)]) /
          static_cast<double>(faults[static_cast<std::size_t>(i)]);
  return heat;
}

}  // namespace

std::vector<double> register_heat(const ProvenanceMap& map,
                                  const ProvenanceAttribution& attr,
                                  int num_regs) {
  return merged_heat(map, attr, num_regs, CompKind::kRegister,
                     CompKind::kRegMux);
}

std::vector<double> fu_heat(const ProvenanceMap& map,
                            const ProvenanceAttribution& attr, int num_fus) {
  return merged_heat(map, attr, num_fus, CompKind::kFu, CompKind::kFuMux);
}

std::vector<double> op_heat(const ProvenanceMap& /*map*/,
                            const ProvenanceAttribution& attr, int num_ops) {
  std::vector<double> heat(static_cast<std::size_t>(num_ops), -1.0);
  for (int o = 0; o < num_ops && o < static_cast<int>(attr.ops.size()); ++o) {
    const OpCoverage& oc = attr.ops[static_cast<std::size_t>(o)];
    if (oc.faults_w > 0.0)
      heat[static_cast<std::size_t>(o)] = oc.covered_w / oc.faults_w;
  }
  return heat;
}

}  // namespace tsyn::observe
