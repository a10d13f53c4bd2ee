#include "testability/testpoints.h"

#include <algorithm>

#include "graph/paths.h"
#include "graph/scc.h"
#include "rtl/sgraph.h"

namespace tsyn::testability {

namespace {

/// The S-graph and its reverse, built once per datapath: every distance
/// and violation query below runs on them.
struct SGraphs {
  graph::Digraph fwd;
  graph::Digraph rev;
  explicit SGraphs(const rtl::Datapath& dp)
      : fwd(rtl::build_sgraph(dp)), rev(fwd.reversed()) {}
};

CoDistances distances(const rtl::Datapath& dp, const SGraphs& s,
                      const std::vector<int>& control_points,
                      const std::vector<int>& observe_points) {
  std::vector<graph::NodeId> c_sources(control_points);
  std::vector<graph::NodeId> o_sources(observe_points);
  for (int r = 0; r < dp.num_regs(); ++r) {
    if (dp.regs[r].is_input) c_sources.push_back(r);
    if (dp.regs[r].is_output) o_sources.push_back(r);
  }
  CoDistances d;
  d.control = graph::bfs_distances(s.fwd, c_sources);
  d.observe = graph::bfs_distances(s.rev, o_sources);
  return d;
}

/// Registers on a loop of >= 2 registers none of which is within k of
/// control (`uncontrollable`) or of observation (`unobservable`).
struct Violations {
  std::vector<bool> uncontrollable;
  std::vector<bool> unobservable;
  int count = 0;  ///< registers in either set
};

/// The registers on a loop of >= 2 registers all farther than k by
/// `dist`: a loop lies in the subgraph the far registers induce exactly
/// when its registers sit in one of that subgraph's strongly connected
/// components of >= 2 registers.
std::vector<bool> on_far_loop(const graph::Digraph& s,
                              const std::vector<int>& dist, int k) {
  std::vector<bool> far(dist.size());
  for (std::size_t r = 0; r < far.size(); ++r)
    far[r] = dist[r] < 0 || dist[r] > k;
  std::vector<graph::NodeId> old_to_new;
  const graph::Digraph sub = s.induced_subgraph(far, &old_to_new);
  const graph::SccResult scc = graph::strongly_connected_components(sub);
  std::vector<bool> on(dist.size(), false);
  for (std::size_t r = 0; r < on.size(); ++r)
    on[r] = old_to_new[r] >= 0 &&
            scc.members[scc.component[old_to_new[r]]].size() >= 2;
  return on;
}

Violations violations(const SGraphs& s, int k, const CoDistances& d) {
  Violations v;
  v.uncontrollable = on_far_loop(s.fwd, d.control, k);
  v.unobservable = on_far_loop(s.fwd, d.observe, k);
  for (std::size_t r = 0; r < v.uncontrollable.size(); ++r)
    v.count += v.uncontrollable[r] || v.unobservable[r];
  return v;
}

}  // namespace

CoDistances co_distances(const rtl::Datapath& dp,
                         const std::vector<int>& control_points,
                         const std::vector<int>& observe_points) {
  return distances(dp, SGraphs(dp), control_points, observe_points);
}

int klevel_violations(const rtl::Datapath& dp, int k,
                      const std::vector<int>& control_points,
                      const std::vector<int>& observe_points) {
  const SGraphs s(dp);
  return violations(s, k, distances(dp, s, control_points, observe_points))
      .count;
}

TestPointResult insert_klevel_test_points(rtl::Datapath& dp, int k,
                                          bool apply) {
  const SGraphs s(dp);
  TestPointResult result;
  for (;;) {
    const Violations before = violations(
        s, k,
        distances(dp, s, result.control_point_regs,
                  result.observe_point_regs));
    if (before.count == 0) break;

    // Try every candidate insertion; keep the one fixing most violations.
    int best_reg = -1;
    bool best_is_control = true;
    int best_after = before.count;
    for (int r = 0; r < dp.num_regs(); ++r) {
      for (const bool is_control : {true, false}) {
        auto cps = result.control_point_regs;
        auto ops = result.observe_point_regs;
        auto& list = is_control ? cps : ops;
        if (std::find(list.begin(), list.end(), r) != list.end()) continue;
        list.push_back(r);
        const int after = violations(s, k, distances(dp, s, cps, ops)).count;
        if (after < best_after) {
          best_after = after;
          best_reg = r;
          best_is_control = is_control;
        }
      }
    }
    if (best_reg < 0) {
      // No single point lowers the count: give the first violating
      // register the points it lacks. Points only shrink the far sets, so
      // every round shrinks a far set or the count and the loop ends.
      int r = 0;
      while (!before.uncontrollable[r] && !before.unobservable[r]) ++r;
      if (before.uncontrollable[r]) result.control_point_regs.push_back(r);
      if (before.unobservable[r]) result.observe_point_regs.push_back(r);
      continue;
    }
    if (best_is_control)
      result.control_point_regs.push_back(best_reg);
    else
      result.observe_point_regs.push_back(best_reg);
  }

  if (apply) {
    for (int r : result.control_point_regs) {
      const int pi = static_cast<int>(dp.primary_inputs.size());
      dp.primary_inputs.push_back(
          {"tp_c_" + dp.regs[r].name, dp.regs[r].width});
      dp.regs[r].drivers.push_back(
          {rtl::Source::Kind::kPrimaryInput, pi});
    }
    for (int r : result.observe_point_regs)
      dp.primary_outputs.push_back(
          {"tp_o_" + dp.regs[r].name, {rtl::Source::Kind::kRegister, r}});
  }
  return result;
}

}  // namespace tsyn::testability
