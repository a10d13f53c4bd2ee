// The three pipeline workloads of bench_pipeline.
//
// A workload is a deterministic function of its seed: make_inputs() turns
// the seed into serialized CDFG designs (the set-up a cold process pays),
// and run_flow() pushes every design through its flow by calling the
// library's public functions, each call wrapped in a "layer/<name>" trace
// span so a traced pass can attribute its time by layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsyn::bench {

/// The flows a design can go through.
enum class Flow {
  kHlsDft,   ///< behavioral DFT techniques, no gate level
  kFullScan, ///< the `tsyn_cli report` flow: full scan, ATPG, compaction
  kSeqAtpg,  ///< MFVS partial scan, then time-frame PODEM on a sample
  kBist,     ///< LFSR grading: drop-mode full scan and sequential MFVS
};

/// One design of a workload: its serialized CDFG, the gate-level
/// expansion width (0 for the behavioral flow) and the flow it goes
/// through.
struct Design {
  std::string name;
  std::string text;
  int width = 0;
  Flow flow = Flow::kHlsDft;
};

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<Design> designs;
};

struct FlowOptions {
  /// Fault-simulation and grading worker threads.
  int threads = 1;
  /// Also run the output checks (schedule/binding validation, re-grading,
  /// oracle simulation). Checks run outside the timed passes.
  bool check = false;
};

/// What one pass produced. Quality counts are summed over the pass's
/// designs; coverage-like ratios are their mean over the designs that
/// report them.
struct FlowOutcome {
  long flows = 0;   ///< designs attempted
  long failed = 0;  ///< designs whose flow threw or failed a check
  std::vector<std::string> errors;
  std::map<std::string, double> quality;
  /// FNV-1a digest of every output the pass computed; equal inputs must
  /// give an equal digest at any thread count.
  std::uint64_t digest = 0;
  /// Bench-side work counts the metrics registry does not keep.
  std::map<std::string, double> counts;
};

/// Workload names in their canonical order.
const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);

/// The seed-derived inputs of `workload` (throws on an unknown name).
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

/// Runs every design of `in` through the workload's flow. Never throws: a
/// design whose flow throws is counted in `failed` with its message.
FlowOutcome run_flow(const Inputs& in, const FlowOptions& opts);

}  // namespace tsyn::bench
