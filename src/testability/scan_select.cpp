#include "testability/scan_select.h"

#include <algorithm>
#include <set>

#include "cdfg/lifetime.h"
#include "cdfg/loops.h"
#include "graph/mfvs.h"
#include "hls/schedule.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tsyn::testability {

namespace {

/// Records how many variables a selection strategy picked.
void publish_selection(std::size_t count) {
  util::metrics().gauge("scan.selected_vars").set(static_cast<long>(count));
  util::metrics().counter("scan.select.runs").add();
}

}  // namespace

std::vector<cdfg::VarId> select_scan_vars_mfvs(const cdfg::Cdfg& g) {
  TSYN_SPAN("scan.select.mfvs");
  const graph::Digraph d = cdfg::var_dependence_graph(g);
  std::vector<cdfg::VarId> selected =
      graph::exact_mfvs(d, {.ignore_self_loops = false}).set;
  publish_selection(selected.size());
  return selected;
}

namespace {

/// ASAP-based lifetime estimate used before final scheduling exists.
cdfg::LifetimeAnalysis estimate_lifetimes(const cdfg::Cdfg& g) {
  const hls::Schedule s = hls::asap_schedule(g);
  return cdfg::analyze_lifetimes(g, s.step_of_op, std::max(s.num_steps, 1));
}

/// Loops that contain variable v.
int loops_cut(const std::vector<graph::Cycle>& loops,
              const std::vector<bool>& covered, cdfg::VarId v) {
  int cut = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (covered[i]) continue;
    if (std::find(loops[i].begin(), loops[i].end(), v) != loops[i].end())
      ++cut;
  }
  return cut;
}

void mark_covered(const std::vector<graph::Cycle>& loops,
                  std::vector<bool>& covered, cdfg::VarId v) {
  for (std::size_t i = 0; i < loops.size(); ++i)
    if (!covered[i] &&
        std::find(loops[i].begin(), loops[i].end(), v) != loops[i].end())
      covered[i] = true;
}

/// Estimated number of scan registers a selection needs: greedy first-fit
/// packing of the selected variables' (estimated) lifetimes.
int estimate_scan_registers(const cdfg::LifetimeAnalysis& lts,
                            const std::vector<cdfg::VarId>& vars) {
  // Distinct lifetimes first (two vars may share one merged lifetime).
  std::vector<int> lifetimes;
  for (cdfg::VarId v : vars) {
    const int lt = lts.lifetime_of_var[v];
    if (lt >= 0 &&
        std::find(lifetimes.begin(), lifetimes.end(), lt) == lifetimes.end())
      lifetimes.push_back(lt);
  }
  // Greedy first-fit packing by overlap.
  std::vector<std::vector<int>> regs;
  for (int lt : lifetimes) {
    bool placed = false;
    for (auto& members : regs) {
      bool clash = false;
      for (int m : members)
        if (lts.overlap(m, lt)) {
          clash = true;
          break;
        }
      if (!clash) {
        members.push_back(lt);
        placed = true;
        break;
      }
    }
    if (!placed) regs.push_back({lt});
  }
  return static_cast<int>(regs.size());
}

int estimated_lifetime_length(const cdfg::LifetimeAnalysis& lts,
                              cdfg::VarId v) {
  const int lt = lts.lifetime_of_var[v];
  if (lt < 0) return 0;
  const graph::Interval& iv = lts.lifetimes[lt].interval;
  if (!iv.wraps()) return iv.death - iv.birth;
  return (lts.num_slots - iv.birth) + iv.death;
}

}  // namespace

std::vector<cdfg::VarId> select_scan_vars_loopcut(const cdfg::Cdfg& g) {
  TSYN_SPAN("scan.select.loopcut");
  const std::vector<graph::Cycle> loops = cdfg::cdfg_loops(g);
  if (loops.empty()) return {};
  const cdfg::LifetimeAnalysis lts = estimate_lifetimes(g);

  // Candidates: variables on loops that actually occupy a register.
  std::vector<cdfg::VarId> candidates;
  for (cdfg::VarId v : cdfg::vars_on_loops(g))
    if (lts.lifetime_of_var[v] >= 0) candidates.push_back(v);

  std::vector<bool> covered(loops.size(), false);
  std::vector<cdfg::VarId> selected;
  auto overlaps = [&](cdfg::VarId a, cdfg::VarId b) {
    const int la = lts.lifetime_of_var[a];
    const int lb = lts.lifetime_of_var[b];
    if (la < 0 || lb < 0 || la == lb) return la == lb;
    return lts.overlap(la, lb);
  };

  while (std::find(covered.begin(), covered.end(), false) != covered.end()) {
    cdfg::VarId best = -1;
    double best_score = -1;
    for (cdfg::VarId v : candidates) {
      if (std::find(selected.begin(), selected.end(), v) != selected.end())
        continue;
      const int cut = loops_cut(loops, covered, v);
      if (cut == 0) continue;
      // Loop-cutting effectiveness: loops removed per new scan register.
      // Sharing effectiveness: can this variable reuse an already-selected
      // scan register, and how many other candidates could share with it?
      bool reuses_selected = false;
      for (cdfg::VarId s : selected)
        if (!overlaps(v, s)) reuses_selected = true;
      int shareable = 0;
      for (cdfg::VarId c : candidates)
        if (c != v && !overlaps(v, c)) ++shareable;
      const double score =
          cut * 10.0 + (reuses_selected ? 6.0 : 0.0) +
          0.5 * shareable -
          0.1 * estimated_lifetime_length(lts, v);
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    if (best < 0) break;  // no candidate cuts a remaining loop
    selected.push_back(best);
    mark_covered(loops, covered, best);
  }
  std::sort(selected.begin(), selected.end());

  // The objective is scan REGISTERS, not variables: if the plain MFVS
  // transplant happens to pack into fewer registers, take it instead.
  const std::vector<cdfg::VarId> mfvs = select_scan_vars_mfvs(g);
  const int own = estimate_scan_registers(lts, selected);
  const int alt = estimate_scan_registers(lts, mfvs);
  if (alt < own || (alt == own && mfvs.size() < selected.size())) {
    publish_selection(mfvs.size());
    return mfvs;
  }
  publish_selection(selected.size());
  return selected;
}

std::vector<cdfg::VarId> select_scan_vars_boundary(const cdfg::Cdfg& g) {
  TSYN_SPAN("scan.select.boundary");
  const std::vector<graph::Cycle> loops = cdfg::cdfg_loops(g);
  if (loops.empty()) return {};
  const cdfg::LifetimeAnalysis lts = estimate_lifetimes(g);

  std::vector<bool> covered(loops.size(), false);
  std::vector<cdfg::VarId> selected;
  const std::vector<cdfg::VarId> states = g.states();
  for (;;) {
    cdfg::VarId best = -1;
    double best_score = -1;
    for (cdfg::VarId s : states) {
      if (std::find(selected.begin(), selected.end(), s) != selected.end())
        continue;
      const int cut = loops_cut(loops, covered, s);
      if (cut == 0) continue;
      // Prefer maximal cover, then shorter lifetimes (easier sharing with
      // intermediates later).
      const double score =
          cut * 10.0 - 0.1 * estimated_lifetime_length(lts, s);
      if (score > best_score) {
        best_score = score;
        best = s;
      }
    }
    if (best < 0) break;
    selected.push_back(best);
    mark_covered(loops, covered, best);
  }
  // Any loop not through a state variable (possible after transformations):
  // fall back to loop-cut selection for the remainder.
  if (std::find(covered.begin(), covered.end(), false) != covered.end()) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (covered[i]) continue;
      selected.push_back(loops[i].front());
      mark_covered(loops, covered, loops[i].front());
    }
  }
  std::sort(selected.begin(), selected.end());
  publish_selection(selected.size());
  return selected;
}

std::vector<cdfg::VarId> select_scan_vars_interior(const cdfg::Cdfg& g) {
  TSYN_SPAN("scan.select.interior");
  const std::vector<graph::Cycle> loops = cdfg::cdfg_loops(g);
  if (loops.empty()) return {};
  const cdfg::LifetimeAnalysis lts = estimate_lifetimes(g);

  // Candidates: pure temps with a non-state (non-wrapping) lifetime.
  auto is_interior = [&](cdfg::VarId v) {
    if (g.var(v).kind != cdfg::VarKind::kTemp) return false;
    const int lt = lts.lifetime_of_var[v];
    return lt >= 0 && !lts.lifetimes[lt].is_state;
  };

  std::vector<bool> covered(loops.size(), false);
  std::vector<cdfg::VarId> selected;
  for (;;) {
    cdfg::VarId best = -1;
    int best_cut = 0;
    for (cdfg::VarId v : cdfg::vars_on_loops(g)) {
      if (!is_interior(v)) continue;
      if (std::find(selected.begin(), selected.end(), v) != selected.end())
        continue;
      const int cut = loops_cut(loops, covered, v);
      if (cut > best_cut) {
        best_cut = cut;
        best = v;
      }
    }
    if (best < 0) break;
    selected.push_back(best);
    mark_covered(loops, covered, best);
  }
  // Loops with no interior candidate: fall back to their state variables.
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (covered[i]) continue;
    selected.push_back(loops[i].front());
    mark_covered(loops, covered, loops[i].front());
  }
  std::sort(selected.begin(), selected.end());
  publish_selection(selected.size());
  return selected;
}

int min_scan_registers(const cdfg::LifetimeAnalysis& lts,
                       const std::vector<cdfg::VarId>& scan_vars) {
  return estimate_scan_registers(lts, scan_vars);
}

int count_scan_registers(const cdfg::Cdfg& g, const hls::Binding& b,
                         const std::vector<cdfg::VarId>& scan_vars) {
  std::set<int> regs;
  for (cdfg::VarId v : scan_vars) {
    const int r = b.reg_of_var(v);
    if (r >= 0) regs.insert(r);
  }
  (void)g;
  return static_cast<int>(regs.size());
}

int apply_scan(const cdfg::Cdfg& g, const hls::Binding& b,
               const std::vector<cdfg::VarId>& scan_vars,
               rtl::Datapath& dp) {
  int count = 0;
  std::set<int> regs;
  for (cdfg::VarId v : scan_vars) {
    const int r = b.reg_of_var(v);
    if (r >= 0) regs.insert(r);
  }
  for (int r : regs) {
    if (dp.regs[r].test_kind == rtl::TestRegKind::kNone) {
      dp.regs[r].test_kind = rtl::TestRegKind::kScan;
      ++count;
    }
  }
  (void)g;
  return count;
}

}  // namespace tsyn::testability
