// Change-sensitive block discovery (paper section 2.4, the Table 2
// funnel): a block is change-sensitive when it is responsive, shows a
// diurnal pattern (spectral energy at 24h and harmonics), and sustains a
// persistent wide daily swing (>= 5 addresses, >= 4 of 7 consecutive
// days for at least one week).
#pragma once

#include <cstdint>
#include <span>

#include "analysis/batch_analyzer.h"
#include "analysis/block_analyzer.h"
#include "analysis/diurnal_test.h"
#include "analysis/swing.h"

namespace diurnal::core {

/// Confidence floor (degraded mode): a block whose reconstruction has
/// fewer fresh samples than this fraction is annotated low-confidence
/// instead of being silently misclassified, and its changes are
/// low-evidence.  A healthy merged fleet probes every round, so the
/// floor only bites when observers fail.
inline constexpr double kMinEvidenceFraction = 0.5;

struct ClassifierOptions {
  analysis::SwingOptions swing{};
  /// The floor, readable through a configuration (the repository
  /// benchmark reads it here); it cannot be set.
  static constexpr double min_evidence_fraction = kMinEvidenceFraction;
};

/// One block's position in the Table 2 funnel.
struct BlockClassification {
  bool responsive = false;
  bool diurnal = false;
  bool wide_swing = false;
  bool change_sensitive = false;  ///< diurnal && wide_swing

  /// Degraded-mode annotation: the verdicts above rest on a
  /// reconstruction whose evidence fell below the confidence floor
  /// (observers dark or partial) — trust them accordingly.  Never set
  /// for a healthy fleet; does not alter the funnel verdicts themselves.
  bool low_confidence = false;
  double evidence_fraction = 1.0;

  analysis::DiurnalResult diurnal_detail{};
  analysis::SwingResult swing_detail{};
};

/// Scalar path: classifies from the raw series plus the only two
/// reconstruction statistics the funnel consults, running the analysis
/// chain through the caller's per-thread analyzer.  Bit-identical to
/// classify_blocks_batch() on that job.
BlockClassification classify_block(std::span<const double> counts,
                                   util::SimTime start, std::int64_t step,
                                   bool responsive, double evidence_fraction,
                                   const ClassifierOptions& opt,
                                   analysis::BlockAnalyzer& az);

/// One block's inputs to the batched classifier.
struct BatchClassifyJob {
  std::span<const double> counts;
  util::SimTime start = 0;
  std::int64_t step = 0;
  bool responsive = false;
  double evidence_fraction = 1.0;
  BlockClassification* out = nullptr;
};

/// Batched classification: runs the diurnality tests for equal-shape
/// responsive jobs through the SoA kernels, the swing gate per job on
/// the span kernel.  jobs.size() must be at most
/// analysis::BatchAnalyzer::kMaxLanes (callers feed worker-local
/// batches; ragged tails are smaller job sets).  Each job's result is
/// bit-identical to classify_block() on that job.  `baz` is the
/// caller's per-thread analyzer.
void classify_blocks_batch(std::span<BatchClassifyJob> jobs,
                           const ClassifierOptions& opt,
                           analysis::BatchAnalyzer& baz);

/// The same call; the BlockAnalyzer is unused.  Kept only for the
/// repository benchmark (perfbench/src/batch.cc), which compiles
/// against this signature until a benchmark change moves it off.
inline void classify_blocks_batch(std::span<BatchClassifyJob> jobs,
                                  const ClassifierOptions& opt,
                                  analysis::BatchAnalyzer& baz,
                                  analysis::BlockAnalyzer&) {
  classify_blocks_batch(jobs, opt, baz);
}

/// Table 2 row: counts of blocks at each funnel stage.
struct FunnelCounts {
  std::int64_t routed = 0;
  std::int64_t not_responsive = 0;
  std::int64_t responsive = 0;
  std::int64_t not_diurnal = 0;
  std::int64_t diurnal = 0;
  std::int64_t narrow_swing = 0;
  std::int64_t wide_swing = 0;
  std::int64_t not_change_sensitive = 0;
  std::int64_t change_sensitive = 0;
  /// Blocks whose verdicts are annotated low-confidence (degraded mode).
  std::int64_t low_confidence = 0;

  void add(const BlockClassification& c) noexcept;
};

}  // namespace diurnal::core
