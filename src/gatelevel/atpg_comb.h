// Combinational ATPG (PODEM).
//
// Generates a primary-input assignment detecting a given stuck-at fault,
// with decision/backtrack counters exposed — the surveyed empirical law
// (§3.1: ATPG effort vs loop length and sequential depth) is measured with
// these counters. Multi-site targets (the same fault replicated across time
// frames) support the sequential engine in atpg_seq.h.
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"
#include "util/rng.h"

namespace tsyn::gl {

/// Scalar ternary value.
enum class V : std::uint8_t { k0, k1, kX };

inline V operator!(V v) {
  if (v == V::kX) return V::kX;
  return v == V::k0 ? V::k1 : V::k0;
}

struct AtpgStats {
  long decisions = 0;
  long backtracks = 0;
  long implications = 0;
};

enum class AtpgStatus { kDetected, kUntestable, kAborted };

struct AtpgResult {
  AtpgStatus status = AtpgStatus::kAborted;
  /// PI assignment (by position in primary_inputs()); kX = unconstrained.
  std::vector<V> pi_values;
  AtpgStats stats;
};

/// PODEM test generator over a combinational netlist.
///
/// Implication is event-driven on the netlist's SimGraph: a search
/// evaluates every node once, then each decision, backtrack flip or
/// un-assignment re-evaluates only the nodes whose fanin values changed.
/// The constructor lowers the netlist through SimGraph::of, so construct
/// engines on the calling thread before sharding work across a pool.
class Podem {
 public:
  explicit Podem(const Netlist& n);

  /// Generates a test for one fault (or one fault replicated over several
  /// sites, which must be behaviorally the same defect — used for
  /// time-frame expansion).
  AtpgResult generate(const Fault& fault, long backtrack_limit = 10000);
  AtpgResult generate_multi(const std::vector<Fault>& sites,
                            long backtrack_limit = 10000);

  /// Like generate_multi, but the search starts from a partial test cube
  /// `base` (by PI position; kX = free). Specified base bits are immutable
  /// givens: only the remaining X inputs are assigned and backtracked, so a
  /// kDetected result's pi_values is a refinement of `base` (every
  /// specified base bit is preserved). kUntestable here means untestable
  /// UNDER the base cube — the fault may well be testable with other base
  /// bits. This is the compatibility test dynamic compaction
  /// (compaction/compaction.h) is built on: merge a secondary fault's test
  /// into the unspecified bits of an already-generated cube.
  AtpgResult generate_multi_from_base(const std::vector<Fault>& sites,
                                      const std::vector<V>& base,
                                      long backtrack_limit = 10000);

  /// PIs the generator must leave at X (e.g. unknowable initial state of a
  /// time-frame-0 pseudo input). Indices into primary_inputs().
  void freeze_inputs(const std::vector<int>& pi_positions);

 private:
  struct NodeVal {
    V good = V::kX;
    V faulty = V::kX;
    friend bool operator==(const NodeVal&, const NodeVal&) = default;
  };

  /// Good/faulty value of `id` from its fanins' current values (a PI from
  /// its assignment), with the sites' stuck values applied.
  NodeVal eval_node(int id, const std::vector<Fault>& sites) const;
  /// Evaluates every node: the first implication pass of a search.
  void imply_all(const std::vector<Fault>& sites);
  /// Sets a PI's assignment; the next imply() propagates it.
  void assign(int pi_node, V value);
  /// One implication pass over the PIs assigned since the last one,
  /// level by level through the fanout cones of the nodes that changed.
  void imply(const std::vector<Fault>& sites);
  bool detected_at_po() const;
  /// Fills effects_ with the nodes carrying a fault effect (both planes
  /// defined and different), walking forward from the sites through the
  /// nodes whose planes differ — the only places an effect can be.
  void collect_effects(const std::vector<Fault>& sites);
  /// Reads effects_, so collect_effects must have run on the current
  /// values (as must it for next_assignment).
  bool x_path_exists(const std::vector<Fault>& sites);
  /// Finds the next PI assignment: enumerates candidate objectives
  /// (activation sites, pin-fault side inputs, D-frontier inputs) and
  /// returns the first whose backtrace reaches an assignable PI.
  bool next_assignment(const std::vector<Fault>& sites, int* pi_node,
                       V* pi_value);
  /// Maps an objective to an unassigned PI; returns false if blocked.
  bool backtrace(int node, V value, int* pi_node, V* pi_value) const;
  /// The line a fault's activation is judged on: the node for an output
  /// fault, the driving fanin for a pin fault.
  int fault_line(const Fault& f) const;
  /// A fresh stamp_ generation: nodes stamped with it are "seen".
  std::uint32_t next_epoch();

  void rebuild_assignable_cones();

  const Netlist& n_;
  const SimGraph& g_;
  std::vector<NodeVal> vals_;
  std::vector<V> pi_assignment_;   // by node id
  std::vector<char> frozen_;       // by node id
  /// Node has an assignable (non-frozen) PI in its transitive fanin — the
  /// backtrace only descends into such cones.
  std::vector<char> assignable_cone_;
  /// Position in Netlist::topo_order(): the D-frontier is tried in this
  /// order, which is not SimGraph's level order.
  std::vector<std::int32_t> topo_rank_;
  /// Node is a site of the current search (gets the stuck-value overrides).
  std::vector<char> is_site_;
  /// PIs assigned since the last implication pass.
  std::vector<int> changed_pis_;
  /// Event queue: level L's pending nodes sit at events_[level_off[L] ..
  /// level_off[L] + level_fill_[L]); queued_ keeps each node in it once.
  std::vector<std::int32_t> events_;
  std::vector<std::int32_t> level_fill_;
  std::vector<char> queued_;
  /// Generation-stamped visit marks and work lists of the effect walks.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<int> effects_;
  std::vector<int> work_;
  std::vector<int> frontier_;
  AtpgStats stats_;
};

/// Full-scan campaign: runs PODEM on every fault, fault-simulating each
/// generated test against the remaining faults (test compaction by fault
/// dropping). Returns per-fault status and the test set.
struct AtpgCampaign {
  std::vector<AtpgStatus> status;
  /// Raw ternary cubes as PODEM produced them (kX = unspecified).
  std::vector<std::vector<V>> tests;
  /// The exact 64-lane block each cube was graded with: specified bits are
  /// all0/all1 across lanes, X bits are random words drawn from one
  /// fixed-seed Rng stream across the whole campaign, consumed in test
  /// order (CampaignGrader). graded_fill[i] corresponds to tests[i];
  /// `status` marks a fault kDetected exactly when one of these blocks'
  /// lanes detects it. Lane l of block i is therefore a fully-specified
  /// pattern the campaign actually takes credit for.
  std::vector<std::vector<Bits>> graded_fill;
  AtpgStats total;
  double fault_efficiency = 0;  ///< (detected + proven untestable) / total
  double fault_coverage = 0;    ///< detected / total
};

/// The grading half of a full-scan campaign, shared by
/// run_combinational_atpg and compaction's dynamic generator. Each graded
/// cube's X inputs are filled with random words (64 independent
/// completions per cube) and the block is fault-simulated against the
/// still-unhandled faults, which it drops; the block is recorded in
/// AtpgCampaign::graded_fill so downstream consumers can reproduce the
/// campaign's detection decisions bit-for-bit.
class CampaignGrader {
 public:
  /// Starts `campaign` over `faults`: every status kAborted, none handled.
  /// `campaign` and `faults` must outlive the grader.
  CampaignGrader(const Netlist& n, const std::vector<Fault>& faults,
                 const FaultSimOptions& sim_options, AtpgCampaign& campaign);

  /// Fault f has its status: its own PODEM verdict, or a detection.
  bool handled(std::size_t f) const { return handled_[f]; }
  /// Records fault f's PODEM verdict.
  void settle(std::size_t f, AtpgStatus status);
  /// Appends `cube` to the campaign's tests and grades its filled block;
  /// every unhandled fault it detects becomes handled and kDetected.
  void grade(const std::vector<V>& cube);
  /// Sets the campaign's fault_coverage and fault_efficiency.
  void finish();

 private:
  const std::vector<Fault>& faults_;
  AtpgCampaign& campaign_;
  FaultSimulator sim_;
  util::Rng rng_;
  std::vector<bool> handled_;
};

/// `sim_options` controls the fault-dropping simulator's parallelism.
AtpgCampaign run_combinational_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    long backtrack_limit = 10000,
                                    const FaultSimOptions& sim_options = {});

}  // namespace tsyn::gl
