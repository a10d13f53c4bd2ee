#include "hls/fds.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "graph/paths.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tsyn::hls {

namespace {

constexpr int kNumFuTypes = static_cast<int>(cdfg::FuType::kCopyUnit) + 1;

struct Frame {
  int lo = 0;
  int hi = 0;  // inclusive
  int width() const { return hi - lo + 1; }
};

class FdsState {
 public:
  FdsState(const cdfg::Cdfg& g, int num_steps)
      : g_(g),
        dep_(g.op_dependence_graph(false)),
        num_steps_(num_steps),
        frames_(g.num_ops()),
        fixed_(g.num_ops(), false),
        type_of_(g.num_ops()) {
    const Schedule asap = asap_schedule(g);
    const Schedule alap = alap_schedule(g, num_steps);
    for (cdfg::OpId o = 0; o < g.num_ops(); ++o) {
      frames_[o] = {asap.step_of_op[o], alap.step_of_op[o]};
      type_of_[o] = static_cast<int>(cdfg::fu_type_of(g.op(o).kind));
    }
    rebuild_dg();
  }

  Schedule run() {
    for (int fixed_count = 0; fixed_count < g_.num_ops(); ++fixed_count) {
      double best_force = 0;
      cdfg::OpId best_op = -1;
      int best_step = -1;
      for (cdfg::OpId o = 0; o < g_.num_ops(); ++o) {
        if (fixed_[o]) continue;
        for (int t = frames_[o].lo; t <= frames_[o].hi; ++t) {
          const double f = total_force(o, t);
          if (best_op == -1 || f < best_force) {
            best_force = f;
            best_op = o;
            best_step = t;
          }
        }
      }
      assert(best_op >= 0);
      fix(best_op, best_step);
    }
    Schedule s;
    s.num_steps = num_steps_;
    s.step_of_op.resize(g_.num_ops());
    for (cdfg::OpId o = 0; o < g_.num_ops(); ++o)
      s.step_of_op[o] = frames_[o].lo;
    return s;
  }

 private:
  // Distribution-graph value for a type at a step.
  double dg(int type, int step) const {
    return dg_[static_cast<std::size_t>(type) * num_steps_ + step];
  }

  // Recomputes the distribution graph from the current frames. Each cell
  // sums its ops' probabilities in ascending op id order, so its value
  // does not depend on when it was last rebuilt.
  void rebuild_dg() {
    dg_.assign(static_cast<std::size_t>(kNumFuTypes) * num_steps_, 0.0);
    for (cdfg::OpId o = 0; o < g_.num_ops(); ++o) {
      const Frame& f = frames_[o];
      const double p = 1.0 / f.width();
      for (int s = f.lo; s <= f.hi; ++s) dg_[type_of_[o] * num_steps_ + s] += p;
    }
  }

  // Self force of placing o at step t.
  double self_force(cdfg::OpId o, int t) const {
    const int type = type_of_[o];
    const Frame& f = frames_[o];
    const double p = 1.0 / f.width();
    double force = 0;
    for (int s = f.lo; s <= f.hi; ++s)
      force += dg(type, s) * ((s == t ? 1.0 : 0.0) - p);
    return force;
  }

  // Force including immediate predecessor/successor frame restrictions.
  double total_force(cdfg::OpId o, int t) const {
    double force = self_force(o, t);
    for (graph::NodeId p : dep_.predecessors(o)) {
      if (fixed_[p]) continue;
      const Frame& fp = frames_[p];
      if (fp.hi >= t) {  // frame would shrink to [lo, t-1]
        const Frame shrunk{fp.lo, t - 1};
        force += frame_change_force(p, fp, shrunk);
      }
    }
    for (graph::NodeId s : dep_.successors(o)) {
      if (fixed_[s]) continue;
      const Frame& fs = frames_[s];
      if (fs.lo <= t) {  // frame would shrink to [t+1, hi]
        const Frame shrunk{t + 1, fs.hi};
        force += frame_change_force(s, fs, shrunk);
      }
    }
    return force;
  }

  double frame_change_force(cdfg::OpId o, const Frame& from,
                            const Frame& to) const {
    const int type = type_of_[o];
    const double p_from = 1.0 / from.width();
    const double p_to = 1.0 / to.width();
    double force = 0;
    for (int s = from.lo; s <= from.hi; ++s) {
      const double in_to = (s >= to.lo && s <= to.hi) ? p_to : 0.0;
      force += dg(type, s) * (in_to - p_from);
    }
    return force;
  }

  void fix(cdfg::OpId o, int t) {
    frames_[o] = {t, t};
    fixed_[o] = true;
    propagate();
    rebuild_dg();
  }

  // Re-tighten all frames after a fix (forward ASAP / backward ALAP pass
  // over current frame bounds).
  void propagate() {
    const auto order = graph::topological_order(dep_);
    for (graph::NodeId o : *order)
      for (graph::NodeId succ : dep_.successors(o))
        frames_[succ].lo = std::max(frames_[succ].lo, frames_[o].lo + 1);
    for (auto it = order->rbegin(); it != order->rend(); ++it)
      for (graph::NodeId succ : dep_.successors(*it))
        frames_[*it].hi = std::min(frames_[*it].hi, frames_[succ].hi - 1);
    for (cdfg::OpId o = 0; o < g_.num_ops(); ++o)
      if (frames_[o].lo > frames_[o].hi)
        throw std::runtime_error("FDS frame collapse");
  }

  const cdfg::Cdfg& g_;
  graph::Digraph dep_;
  int num_steps_;
  std::vector<Frame> frames_;
  std::vector<bool> fixed_;
  std::vector<int> type_of_;  // FuType of each op
  // Distribution graph, [FuType][step].
  std::vector<double> dg_;
};

}  // namespace

Schedule force_directed_schedule(const cdfg::Cdfg& g, int num_steps) {
  TSYN_SPAN("hls.schedule.fds");
  static util::Counter& runs = util::metrics().counter("hls.schedule.runs");
  runs.add();
  if (num_steps < critical_path_length(g))
    throw std::runtime_error("deadline below critical path length");
  if (g.num_ops() == 0) {
    Schedule s;
    s.num_steps = num_steps;
    return s;
  }
  return FdsState(g, num_steps).run();
}

}  // namespace tsyn::hls
