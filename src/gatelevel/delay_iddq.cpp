#include "gatelevel/delay_iddq.h"

#include <algorithm>

#include "gatelevel/faultsim.h"
#include "util/thread_pool.h"

namespace tsyn::gl {

std::vector<TransitionFault> enumerate_transition_faults(const Netlist& n) {
  std::vector<TransitionFault> faults;
  for (int id = 0; id < n.num_nodes(); ++id) {
    const GateType t = n.node(id).type;
    if (t == GateType::kConst0 || t == GateType::kConst1) continue;
    faults.push_back({id, true});
    faults.push_back({id, false});
  }
  return faults;
}

double transition_fault_coverage(
    const Netlist& n, const std::vector<std::vector<Bits>>& blocks,
    const std::vector<TransitionFault>& faults,
    const FaultSimOptions& options) {
  if (faults.empty()) return 1.0;

  // The capture pattern of a slow-to-rise fault must detect node SA0 (the
  // late value still looks 0); slow-to-fall dually needs SA1.
  std::vector<Fault> sa;
  sa.reserve(faults.size());
  for (const TransitionFault& f : faults)
    sa.push_back({f.node, -1, !f.slow_to_rise});

  FaultSimulator sim(n, options);
  std::vector<bool> detected(faults.size(), false);
  // Carries the last lane's good node value across block boundaries.
  std::vector<char> prev_value(n.num_nodes(), -1);  // -1 unknown

  std::vector<std::uint64_t> masks;
  for (const auto& block : blocks) {
    sim.run_block_detail(block, sa, masks);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (detected[i]) continue;
      const TransitionFault& f = faults[i];
      const Bits good = sim.good_value(f.node);
      // Lane l launches from lane l-1 (or from the previous block's last
      // lane for l == 0).
      const char init_needed = f.slow_to_rise ? 0 : 1;
      for (int lane = 0; lane < 64 && !detected[i]; ++lane) {
        if (((masks[i] >> lane) & 1) == 0) continue;  // capture must detect
        char init;
        if (lane == 0) {
          init = prev_value[f.node];
        } else {
          if ((good.x >> (lane - 1)) & 1) continue;
          init = static_cast<char>((good.v >> (lane - 1)) & 1);
        }
        if (init == init_needed) detected[i] = true;
      }
    }
    // Record the last lane's good values for the next block boundary.
    for (int id = 0; id < n.num_nodes(); ++id) {
      const Bits good = sim.good_value(id);
      prev_value[id] = ((good.x >> 63) & 1)
                           ? static_cast<char>(-1)
                           : static_cast<char>((good.v >> 63) & 1);
    }
  }
  const long hit = std::count(detected.begin(), detected.end(), true);
  return static_cast<double>(hit) / static_cast<double>(faults.size());
}

double iddq_fault_coverage(const Netlist& n,
                           const std::vector<std::vector<Bits>>& blocks,
                           const std::vector<Fault>& faults,
                           const FaultSimOptions& options) {
  if (faults.empty()) return 1.0;
  // Activation needs no propagation, so the per-fault scan is a pure read
  // of the good values — shard it over the pool (char, not vector<bool>,
  // so concurrent writes land on distinct bytes).
  std::vector<char> activated(faults.size(), 0);
  std::vector<Bits> values(n.num_nodes(), Bits::unknown());
  const int workers = std::min<int>(options.resolved_threads(),
                                    static_cast<int>(faults.size()));
  auto scan = [&](int i, int) {
    if (activated[i]) return;
    const Fault& f = faults[i];
    // The line the fault sits on (its driver for pin faults).
    const int line = f.fanin_index < 0
                         ? f.node
                         : n.node(f.node).fanins[f.fanin_index];
    const Bits v = values[line];
    const std::uint64_t opposite =
        f.stuck_at_one ? (~v.v & ~v.x) : (v.v & ~v.x);
    if (opposite != 0) activated[i] = 1;
  };
  for (const auto& block : blocks) {
    for (std::size_t i = 0; i < n.primary_inputs().size(); ++i)
      values[n.primary_inputs()[i]] =
          i < block.size() ? block[i] : Bits::unknown();
    simulate_frame(n, values);
    if (workers <= 1) {
      for (std::size_t i = 0; i < faults.size(); ++i) scan(static_cast<int>(i), 0);
    } else {
      util::ThreadPool::shared().run(static_cast<int>(faults.size()), workers,
                                     scan);
    }
  }
  const long hit = std::count(activated.begin(), activated.end(), 1);
  return static_cast<double>(hit) / static_cast<double>(faults.size());
}

}  // namespace tsyn::gl
