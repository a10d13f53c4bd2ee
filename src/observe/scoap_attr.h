// SCOAP cross-attribution: does structural testability predict ATPG effort?
//
// The survey's testability-analysis claim is that cheap structural
// measures (Goldstein's SCOAP controllability/observability) predict where
// test generation will struggle. With the fault-lifecycle ledger we can
// check that claim on our own engines: join each targeted fault's recorded
// PODEM effort (decisions + backtracks) against its SCOAP-predicted
// difficulty (controllability of the activation value plus observability
// of the faulted line), rank both sides, and report the Spearman rank
// correlation plus the top-K faults SCOAP mispredicted hardest — the
// interesting residue where structure alone fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/netlist.h"
#include "observe/ledger.h"

namespace tsyn::observe {

/// gl::Fault -> ledger key. Templated so the util-level ledger stays free
/// of gatelevel types; any struct with {node, fanin_index, stuck_at_one}
/// qualifies.
template <typename F>
FaultKey make_fault_key(const F& f) {
  return FaultKey{f.node, f.fanin_index, f.stuck_at_one ? 1 : 0};
}

/// Spearman rank correlation of two equal-length samples: Pearson
/// correlation of the rank vectors, with ties assigned their average rank.
/// Returns 0 when either side has no variance or fewer than two samples.
double spearman_rank_correlation(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// Average-tie ranks of `v` (rank 1 = smallest), the primitive the
/// correlation and the misprediction gap are both built on.
std::vector<double> average_ranks(const std::vector<double>& v);

struct ScoapFaultRow {
  FaultKey key;
  std::string label;  ///< gl::describe() of the fault
  FaultStatus status = FaultStatus::kUndetected;
  int cc = 0;  ///< controllability of the activation value at the line
  int co = 0;  ///< observability of the line
  std::int64_t predicted = 0;  ///< cc + co
  std::int64_t effort = 0;     ///< ledger decisions + backtracks
  double predicted_rank = 0.0;
  double effort_rank = 0.0;
  double rank_gap() const { return effort_rank - predicted_rank; }
};

struct ScoapAttribution {
  /// One row per ATPG-targeted fault (targets > 0), sorted by key.
  std::vector<ScoapFaultRow> rows;
  /// Rank correlation of predicted difficulty vs. actual effort over
  /// `rows`. The survey's claim is a solidly positive value.
  double spearman = 0.0;
  /// Indices into `rows` with the largest |rank_gap()|, descending
  /// (ties broken by key). At most `top_k` entries.
  std::vector<int> top_mispredicted;
};

/// Joins ledger journeys against SCOAP on `n` (combinational). Faults in
/// the ledger whose line no longer resolves in `n` are skipped.
ScoapAttribution attribute_scoap(const gl::Netlist& n,
                                 const LedgerSnapshot& ledger,
                                 int top_k = 10);

}  // namespace tsyn::observe
