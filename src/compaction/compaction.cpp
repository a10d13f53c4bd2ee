#include "compaction/compaction.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace tsyn::compaction {

namespace {

using gl::AtpgCampaign;
using gl::AtpgStatus;
using gl::Bits;
using gl::Fault;
using gl::FaultSimOptions;
using gl::Netlist;
using gl::Podem;

/// Dynamic compaction: how many still-undetected faults are probed as
/// secondary targets per primary cube, how many may be merged into one
/// cube, and the (cheap) per-probe backtrack budget. A probe that aborts
/// just means "not merged here"; the fault keeps its own turn later.
constexpr int kDynamicCandidateWindow = 96;
constexpr int kDynamicMaxSecondary = 32;
constexpr long kDynamicBacktrackLimit = 400;

bool has_x(const TestCube& c) {
  return std::find(c.begin(), c.end(), V::kX) != c.end();
}

/// Lane-extraction: one fully-specified pattern out of a 64-lane grading
/// block (all lanes of graded_fill blocks are known bits by construction).
TestCube extract_lane(const std::vector<Bits>& block, int lane) {
  TestCube p(block.size());
  for (std::size_t i = 0; i < block.size(); ++i)
    p[i] = ((block[i].v >> lane) & 1) ? V::k1 : V::k0;
  return p;
}

std::size_t num_blocks(std::size_t num_patterns) {
  return (num_patterns + 63) / 64;
}

/// Block count from which a no-drop matrix grades at 512 lanes. Every
/// fault stays live through every block, so one wide propagation replaces
/// up to eight narrow ones once there are blocks to fill it. On the
/// fullscan designs 64 lanes win at one block and 512 lanes win on every
/// design from two (docs/faultsim.md, "Economics").
constexpr std::size_t kWideMatrixBlocks = 2;

/// `options` at the lane width a no-drop matrix over `blocks` blocks
/// grades fastest at. Only ever widens: a caller's 512 stays. The masks
/// are bit-identical at both widths (gl::detection_masks).
FaultSimOptions matrix_options(FaultSimOptions options, std::size_t blocks) {
  if (blocks >= kWideMatrixBlocks) options.lanes = 512;
  return options;
}

/// Dynamic-compaction generation: the serial PODEM campaign loop of
/// run_combinational_atpg, except that every detected primary cube is
/// re-entered (generate_multi_from_base) to fold secondary faults into its
/// unspecified inputs before it is graded. Grading goes through the same
/// gl::CampaignGrader (and so records graded_fill) so the campaign's
/// detection decisions stay reproducible.
AtpgCampaign run_dynamic_campaign(const Netlist& n,
                                  const std::vector<Fault>& faults,
                                  long backtrack_limit,
                                  const FaultSimOptions& sim_options,
                                  CompactionStats* stats) {
  TSYN_SPAN("compaction.dynamic_generate");
  static util::Counter& m_probes =
      util::metrics().counter("compaction.dynamic.secondary_probes");
  static util::Counter& m_merged =
      util::metrics().counter("compaction.dynamic.secondary_merged");

  AtpgCampaign campaign;
  gl::CampaignGrader grader(n, faults, sim_options, campaign);

  auto add_stats = [&](const gl::AtpgStats& s) {
    campaign.total.decisions += s.decisions;
    campaign.total.backtracks += s.backtracks;
    campaign.total.implications += s.implications;
  };

  Podem podem(n);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (grader.handled(fi)) continue;
    const gl::AtpgResult r = podem.generate(faults[fi], backtrack_limit);
    add_stats(r.stats);
    grader.settle(fi, r.status);
    if (r.status != AtpgStatus::kDetected) continue;

    TestCube cube = r.pi_values;
    int probes = 0;
    int merged = 0;
    for (std::size_t fj = fi + 1;
         fj < faults.size() && probes < kDynamicCandidateWindow &&
         merged < kDynamicMaxSecondary && has_x(cube);
         ++fj) {
      if (grader.handled(fj)) continue;
      ++probes;
      // A kDetected probe refines `cube` (base bits immutable) and its
      // ternary PO difference holds for every completion, so the merged
      // fault stays detected through fill and static merging. Anything
      // else just means "not compatible here" — the fault keeps its own
      // turn as a primary later.
      const gl::AtpgResult r2 = podem.generate_multi_from_base(
          {faults[fj]}, cube, kDynamicBacktrackLimit);
      add_stats(r2.stats);
      if (r2.status == AtpgStatus::kDetected) {
        cube = r2.pi_values;
        grader.settle(fj, AtpgStatus::kDetected);
        ++merged;
      }
    }
    m_probes.add(probes);
    m_merged.add(merged);
    stats->secondary_merged += merged;
    grader.grade(cube);
  }
  grader.finish();
  return campaign;
}

double grade_patterns(const Netlist& n, const std::vector<TestCube>& patterns,
                      const std::vector<Fault>& faults,
                      const FaultSimOptions& sim_options) {
  if (faults.empty()) return 1.0;
  if (patterns.empty()) return 0.0;
  return gl::fault_coverage(n, patterns_to_blocks(patterns), faults, nullptr,
                            sim_options);
}

}  // namespace

const char* to_string(CompactMode mode) {
  switch (mode) {
    case CompactMode::kOff: return "off";
    case CompactMode::kStatic: return "static";
    case CompactMode::kDynamic: return "dynamic";
  }
  return "?";
}

bool parse_compact_mode(const std::string& text, CompactMode* out) {
  if (text == "off") *out = CompactMode::kOff;
  else if (text == "static") *out = CompactMode::kStatic;
  else if (text == "dynamic") *out = CompactMode::kDynamic;
  else return false;
  return true;
}

std::vector<std::vector<Bits>> patterns_to_blocks(
    const std::vector<TestCube>& patterns) {
  std::vector<std::vector<Bits>> blocks;
  if (patterns.empty()) return blocks;
  const std::size_t num_pis = patterns[0].size();
  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  blocks.assign(num_blocks, std::vector<Bits>(num_pis, Bits::all0()));
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const TestCube& pat = patterns[p];
    if (pat.size() != num_pis)
      throw std::runtime_error("pattern width mismatch");
    for (std::size_t i = 0; i < num_pis; ++i) {
      if (pat[i] == V::kX)
        throw std::runtime_error("pattern still has X bits; fill first");
      if (pat[i] == V::k1) blocks[p / 64][i].v |= 1ULL << (p % 64);
    }
  }
  // Trailing lanes of the last block repeat the block's first pattern so
  // every lane is a real stimulus (coverage-neutral).
  const std::size_t tail = patterns.size() % 64;
  if (tail != 0) {
    for (std::size_t i = 0; i < num_pis; ++i) {
      Bits& b = blocks.back()[i];
      const std::uint64_t first = b.v & 1;
      if (first) b.v |= ~((1ULL << tail) - 1);
    }
  }
  return blocks;
}

std::vector<std::uint64_t> detection_matrix(
    const Netlist& n, const std::vector<TestCube>& patterns,
    const std::vector<Fault>& faults, const FaultSimOptions& sim_options) {
  TSYN_SPAN("compaction.detection_matrix");
  const std::vector<std::vector<Bits>> blocks = patterns_to_blocks(patterns);
  std::vector<std::uint64_t> matrix;
  gl::detection_masks(n, blocks, faults, matrix,
                      matrix_options(sim_options, blocks.size()));
  if (blocks.empty() || faults.empty()) return matrix;
  const std::size_t nb = blocks.size();

  // Mask the padding lanes of the last block out of the matrix so no
  // consumer credits a pattern that does not exist.
  const std::size_t tail = patterns.size() % 64;
  if (tail != 0) {
    const std::uint64_t valid = (1ULL << tail) - 1;
    for (std::size_t f = 0; f < faults.size(); ++f)
      matrix[f * nb + nb - 1] &= valid;
  }

  // The matrix is the ledger's n-detect source: it grades every fault
  // against every pattern with no dropping, so the per-fault popcount is
  // the true detection multiplicity of the graded set, and the first set
  // bit its first-detect pattern.
  if (observe::ledger_enabled()) {
    observe::record_universe(static_cast<long>(faults.size()));
    for (std::size_t f = 0; f < faults.size(); ++f) {
      long count = 0;
      long first = -1;
      for (std::size_t b = 0; b < nb; ++b) {
        const std::uint64_t w = matrix[f * nb + b];
        if (w == 0) continue;
        if (first < 0)
          first = static_cast<long>(64 * b) + std::countr_zero(w);
        count += std::popcount(w);
      }
      const observe::FaultKey key = observe::make_fault_key(faults[f]);
      observe::record_ndetect(key, count);
      if (first >= 0) observe::record_detected(key, first);
    }
  }
  return matrix;
}

std::vector<int> prune_from_matrix(const std::vector<std::uint64_t>& matrix,
                                   std::size_t num_patterns) {
  TSYN_SPAN("compaction.prune");
  std::vector<char> keep(num_patterns, 0);
  const std::size_t nb = num_blocks(num_patterns);
  for (std::size_t base = 0; base < matrix.size(); base += nb) {
    const std::uint64_t* row = &matrix[base];
    for (int b = static_cast<int>(nb) - 1; b >= 0; --b) {
      if (row[b] == 0) continue;
      const int lane = 63 - std::countl_zero(row[b]);
      keep[static_cast<std::size_t>(b) * 64 + lane] = 1;
      break;
    }
  }
  std::vector<int> kept;
  for (std::size_t p = 0; p < num_patterns; ++p)
    if (keep[p]) kept.push_back(static_cast<int>(p));
  return kept;
}

double NdetectProfile::fraction_at_least(int k) const {
  if (counts.empty()) return 0.0;
  long hit = 0;
  for (int c : counts) hit += c >= k;
  return static_cast<double>(hit) / static_cast<double>(counts.size());
}

NdetectProfile grade_ndetect(const Netlist& n,
                             const std::vector<TestCube>& patterns,
                             const std::vector<Fault>& faults,
                             const FaultSimOptions& sim_options) {
  TSYN_SPAN("compaction.ndetect");
  const std::vector<std::uint64_t> matrix =
      detection_matrix(n, patterns, faults, sim_options);
  const std::size_t nb = num_blocks(patterns.size());
  NdetectProfile profile;
  profile.counts.assign(faults.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f)
    for (std::size_t b = 0; b < nb; ++b)
      profile.counts[f] += std::popcount(matrix[f * nb + b]);
  return profile;
}

CompactedCampaign run_compacted_atpg(const Netlist& n,
                                     const std::vector<Fault>& faults,
                                     const CompactionOptions& copts,
                                     long backtrack_limit,
                                     const FaultSimOptions& sim_options) {
  TSYN_SPAN("compaction.pipeline");
  static util::Counter& m_cubes_in =
      util::metrics().counter("compaction.cubes_in");
  static util::Counter& m_merged_away =
      util::metrics().counter("compaction.cubes_merged_away");
  static util::Counter& m_pruned =
      util::metrics().counter("compaction.patterns_pruned");
  static util::Counter& m_topup =
      util::metrics().counter("compaction.topup_patterns");

  CompactedCampaign out;
  if (copts.mode == CompactMode::kOff) {
    // No compaction: the campaign is the exact run_combinational_atpg
    // output (bit-identical, the --compact=off contract); the only new
    // work is making the shipped fill explicit.
    {
      observe::LedgerPhase ledger_phase("compact.generate");
      out.campaign =
          gl::run_combinational_atpg(n, faults, backtrack_limit, sim_options);
    }
    out.cubes = out.campaign.tests;
    out.stats.cubes_generated = static_cast<long>(out.cubes.size());
    out.stats.cubes_after_merge = out.stats.cubes_generated;
    out.patterns = out.cubes;
    apply_xfill(out.patterns, copts.xfill, copts.fill_seed);
    {
      observe::LedgerPhase ledger_phase("compact.ship");
      out.pattern_coverage =
          grade_patterns(n, out.patterns, faults, sim_options);
    }
    out.baseline_patterns = static_cast<long>(out.patterns.size());
    return out;
  }

  // 1. Generation (with dynamic compaction in kDynamic mode).
  {
    observe::LedgerPhase ledger_phase("compact.generate");
    if (copts.mode == CompactMode::kStatic) {
      out.campaign =
          gl::run_combinational_atpg(n, faults, backtrack_limit, sim_options);
    } else {
      out.campaign = run_dynamic_campaign(n, faults, backtrack_limit,
                                          sim_options, &out.stats);
    }
  }
  out.stats.cubes_generated = static_cast<long>(out.campaign.tests.size());
  m_cubes_in.add(out.stats.cubes_generated);

  // The measured baseline: the plain campaign's shipped pattern count (64
  // random completions per cube — the graded_fill blocks its claimed
  // coverage is certified against), and the union of detected sets as the
  // coverage floor the top-up restores.
  AtpgCampaign plain;
  if (copts.mode == CompactMode::kDynamic) {
    TSYN_SPAN("compaction.baseline");
    observe::LedgerPhase ledger_phase("compact.baseline");
    plain = gl::run_combinational_atpg(n, faults, backtrack_limit, sim_options);
  }
  // In kStatic the plain campaign IS the generator.
  const AtpgCampaign& baseline =
      copts.mode == CompactMode::kStatic ? out.campaign : plain;
  out.baseline_patterns = 64 * static_cast<long>(baseline.tests.size());

  // 2. Static compaction.
  {
    TSYN_SPAN("compaction.merge");
    out.cubes = merge_compatible_cubes(out.campaign.tests);
  }
  out.stats.cubes_after_merge = static_cast<long>(out.cubes.size());
  m_merged_away.add(out.stats.cubes_generated - out.stats.cubes_after_merge);

  // 3. X-fill.
  std::vector<TestCube> patterns = out.cubes;
  apply_xfill(patterns, copts.xfill, copts.fill_seed);

  // 4. Reverse-order pruning (on the full detection matrix, which the
  //    coverage accounting below reuses).
  std::vector<std::uint64_t> matrix;
  {
    observe::LedgerPhase ledger_phase("compact.grade");
    matrix = detection_matrix(n, patterns, faults, sim_options);
  }
  const std::vector<int> kept = prune_from_matrix(matrix, patterns.size());
  out.stats.patterns_pruned =
      static_cast<long>(patterns.size()) - static_cast<long>(kept.size());
  m_pruned.add(out.stats.patterns_pruned);

  // 5. Top-up: any fault the campaign (or the measured baseline) detected
  //    that the filled pattern set misses was a lucky random-fill
  //    detection; re-extract one detecting lane from the recorded grading
  //    blocks so final coverage provably never drops. Pruning credits
  //    every matrix-covered fault to a kept pattern, so "matrix row
  //    nonzero" == "covered by the kept set".
  const std::size_t nb = num_blocks(patterns.size());
  std::vector<std::size_t> missing;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const bool want =
        out.campaign.status[f] == AtpgStatus::kDetected ||
        baseline.status[f] == AtpgStatus::kDetected;
    if (!want) continue;
    const std::uint64_t* row = matrix.data() + f * nb;
    if (std::all_of(row, row + nb, [](std::uint64_t w) { return w == 0; }))
      missing.push_back(f);
  }
  std::vector<TestCube> topups;
  // first[f]: the shipped index (kept patterns, then top-ups) of the
  // first pattern detecting faults[f], -1 while none is known. The top-up
  // cover sets it for the missing faults, step 6 for the rest.
  std::vector<long> first(faults.size(), -1);
  if (!missing.empty()) {
    TSYN_SPAN("compaction.topup");
    observe::LedgerPhase ledger_phase("compact.topup");
    // The recorded blocks of the generating campaign, then of the
    // measured baseline if it is a second campaign.
    std::vector<std::vector<Bits>> joined;
    if (&baseline != &out.campaign) {
      joined = out.campaign.graded_fill;
      joined.insert(joined.end(), baseline.graded_fill.begin(),
                    baseline.graded_fill.end());
    }
    const std::vector<std::vector<Bits>>& blocks =
        &baseline != &out.campaign ? joined : out.campaign.graded_fill;
    const std::size_t fill_blocks = blocks.size();
    std::vector<Fault> subset;
    subset.reserve(missing.size());
    for (std::size_t f : missing) subset.push_back(faults[f]);
    std::vector<std::uint64_t> masks;
    gl::detection_masks(n, blocks, subset, masks,
                        matrix_options(sim_options, fill_blocks));

    // Calls `visit(64 * block + lane)` for every lane detecting missing[s].
    auto for_each_lane = [&](std::size_t s, auto&& visit) {
      const std::uint64_t* row = masks.data() + s * fill_blocks;
      for (std::size_t b = 0; b < fill_blocks; ++b)
        for (std::uint64_t w = row[b]; w != 0; w &= w - 1)
          visit(64 * b + std::countr_zero(w));
    };
    // Candidates: every recorded lane, numbered 64 * block + lane, with
    // count[c] = how many still-uncovered missing faults lane c detects.
    // Greedy set cover extracts the fewest lanes that restore the union
    // coverage, ties breaking to the earliest candidate (deterministic).
    std::vector<long> count(64 * fill_blocks, 0);
    for (std::size_t s = 0; s < missing.size(); ++s)
      for_each_lane(s, [&](std::size_t c) { ++count[c]; });
    // The still-uncovered indices into `missing`, in ascending order. A
    // pick scans them once and keeps only those it does not cover, which
    // is cheaper than building a list of detected faults per candidate.
    std::vector<std::size_t> open(missing.size());
    std::iota(open.begin(), open.end(), std::size_t{0});

    // Lazy greedy (Minoux's accelerated greedy): counts only fall as
    // faults get covered, so a popped candidate whose count still equals
    // its heap key beats every other candidate's current count — the same
    // pick, and the same earliest-candidate tie-break, as a full rescan.
    std::priority_queue<std::pair<long, long>> heap;
    for (std::size_t c = 0; c < count.size(); ++c)
      if (count[c] > 0) heap.push({count[c], -static_cast<long>(c)});
    while (!open.empty() && !heap.empty()) {
      const auto [key, neg_index] = heap.top();
      heap.pop();
      const std::size_t c = static_cast<std::size_t>(-neg_index);
      if (count[c] == 0) continue;
      if (count[c] < key) {
        heap.push({count[c], neg_index});
        continue;
      }
      // A pick covers every still-uncovered fault its lane detects, so no
      // earlier pick detects them: it is their first detecting pattern.
      const std::size_t b = c / 64;
      const int lane = static_cast<int>(c % 64);
      std::size_t still_open = 0;
      for (std::size_t s : open) {
        if (!((masks[s * fill_blocks + b] >> lane) & 1)) {
          open[still_open++] = s;
          continue;
        }
        first[missing[s]] = static_cast<long>(kept.size() + topups.size());
        for_each_lane(s, [&](std::size_t d) { --count[d]; });
      }
      open.resize(still_open);
      topups.push_back(extract_lane(blocks[b], lane));
    }
    // Every fault in the union set was detected by some recorded lane, so
    // the cover always drains.
    assert(open.empty());
  }
  out.stats.topup_patterns = static_cast<long>(topups.size());
  m_topup.add(out.stats.topup_patterns);

  // 6. Shipped coverage — the number the acceptance contract (coverage
  //    never drops) is checked against — derived from what the pipeline
  //    already graded, with each fault's first detecting shipped index
  //    (kept patterns, then top-ups) exactly as a drop-mode grade of the
  //    shipped set would record it:
  //    - a fault the kept patterns detect: its first kept detection in the
  //      pruning matrix, at its rank in `kept`;
  //    - a missing fault: the first pick covering it;
  //    - the residual (zero matrix row, not missing — PODEM's untestable
  //      and aborted verdicts): one no-drop grade against the top-ups.
  {
    TSYN_SPAN("compaction.final_grade");
    observe::LedgerPhase ledger_phase("compact.ship");
    const long num_kept = static_cast<long>(kept.size());
    std::vector<std::uint64_t> kept_mask(nb, 0);
    std::vector<long> rank(patterns.size(), -1);
    for (std::size_t r = 0; r < kept.size(); ++r) {
      kept_mask[kept[r] / 64] |= 1ULL << (kept[r] % 64);
      rank[kept[r]] = static_cast<long>(r);
    }

    for (std::size_t f = 0; f < faults.size(); ++f) {
      const std::uint64_t* row = matrix.data() + f * nb;
      for (std::size_t b = 0; b < nb; ++b) {
        const std::uint64_t w = row[b] & kept_mask[b];
        if (w == 0) continue;
        first[f] = rank[64 * b + std::countr_zero(w)];
        break;
      }
    }
    std::vector<std::size_t> residual;
    for (std::size_t f = 0; f < faults.size(); ++f)
      if (first[f] < 0) residual.push_back(f);
    if (!residual.empty() && !topups.empty()) {
      std::vector<Fault> subset;
      subset.reserve(residual.size());
      for (std::size_t f : residual) subset.push_back(faults[f]);
      const std::vector<std::vector<Bits>> blocks = patterns_to_blocks(topups);
      const std::size_t tb = blocks.size();
      std::vector<std::uint64_t> masks;
      gl::detection_masks(n, blocks, subset, masks,
                          matrix_options(sim_options, tb));
      const std::size_t tail = topups.size() % 64;
      const std::uint64_t last_valid = tail ? (1ULL << tail) - 1 : ~0ULL;
      for (std::size_t r = 0; r < residual.size(); ++r) {
        for (std::size_t b = 0; b < tb; ++b) {
          std::uint64_t w = masks[r * tb + b];
          if (b + 1 == tb) w &= last_valid;
          if (w == 0) continue;
          first[residual[r]] =
              num_kept + static_cast<long>(64 * b) + std::countr_zero(w);
          break;
        }
      }
    }

    // The same events a drop-mode grade of the shipped set records (the
    // universe only when there is a set to grade), minus the simulation
    // effort of every fault the derivation did not have to propagate.
    const long hit = std::count_if(first.begin(), first.end(),
                                   [](long p) { return p >= 0; });
    const bool graded = !faults.empty() && (num_kept > 0 || !topups.empty());
    if (graded && observe::ledger_enabled()) {
      observe::record_universe(static_cast<long>(faults.size()));
      for (std::size_t f = 0; f < faults.size(); ++f)
        if (first[f] >= 0)
          observe::record_detected(observe::make_fault_key(faults[f]),
                                   first[f]);
    }
    out.pattern_coverage =
        faults.empty() ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(faults.size());
  }

  out.patterns.reserve(kept.size() + topups.size());
  for (int p : kept) out.patterns.push_back(patterns[p]);
  for (TestCube& t : topups) out.patterns.push_back(std::move(t));
  util::metrics().gauge("compaction.reduction").set(out.reduction());
  return out;
}

}  // namespace tsyn::compaction
