// One reusable facade over the per-block analysis chain (diurnality
// test -> swing gate -> STL trend -> z-score -> CUSUM).
//
// A BlockAnalyzer owns one Workspace plus the persistent output buffers
// the chain writes into, so a warm analyzer runs every stage for block
// after block with zero steady-state heap traffic.  The engine runs the
// batched tier (BatchAnalyzer); this scalar chain is the oracle the
// bitwise tests hold the batched kernels to, and the analyzer behind
// core::classify_block's span form.
//
// Contracts:
//  * One analyzer per thread (the Workspace is unsynchronized).
//  * Every returned span/view is valid only until the NEXT call of the
//    SAME stage on this analyzer (each stage has its own buffers, so
//    interleaving different stages is fine: the z-score of a trend may
//    be taken while the decomposition views are still live).
//  * Inputs must not alias the analyzer's own output buffers (i.e. do
//    not feed a stage its previous result), except where a method
//    documents otherwise — zscore() and cusum() read their input fully
//    before writing, so chaining decompose_stl().trend -> zscore() ->
//    cusum() is the supported pattern.
// Every stage is bit-identical to the corresponding standalone
// vector-based kernel; the fleet digest gates on this.
#pragma once

#include <span>

#include "analysis/cusum.h"
#include "analysis/diurnal_test.h"
#include "analysis/stl.h"
#include "analysis/swing.h"
#include "analysis/workspace.h"

namespace diurnal::analysis {

class BlockAnalyzer {
 public:
  BlockAnalyzer() = default;
  BlockAnalyzer(const BlockAnalyzer&) = delete;
  BlockAnalyzer& operator=(const BlockAnalyzer&) = delete;

  /// The arena backing this analyzer (for kernels not wrapped here).
  Workspace& workspace() noexcept { return ws_; }

  /// Goertzel diurnality test (scratch from the workspace).
  DiurnalResult diurnal(std::span<const double> counts, double samples_per_day);

  /// Daily-swing classification; value[i] covers time start + i*step.
  SwingResult swing(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const SwingOptions& opt = {});

  /// Views over the analyzer-owned decomposition buffers.
  struct Decomposition {
    std::span<const double> trend;
    std::span<const double> seasonal;
    std::span<const double> residual;
  };

  /// STL decomposition into the analyzer's persistent buffers.
  Decomposition decompose_stl(std::span<const double> y, const StlOptions& opt);

  /// Z-score normalization with util::TimeSeries::zscore() semantics:
  /// numerically constant series (sd <= 1e-9 * max(1, |mean|)) map to
  /// exact zeros.  `x` may be a view of this analyzer's decomposition
  /// buffers (read fully before the output is written).
  std::span<const double> zscore(std::span<const double> x);

  /// Views over the CUSUM machine's buffers after a full scan.
  struct CusumView {
    std::span<const ChangePoint> changes;
    std::span<const double> g_pos;
    std::span<const double> g_neg;
  };

  /// Two-sided CUSUM over x, reusing the analyzer's machine.  `x` may
  /// view this analyzer's buffers (copied into the machine as pushed).
  CusumView cusum(std::span<const double> x, const CusumOptions& opt = {});

 private:
  Workspace ws_;
  Workspace::Vec trend_;
  Workspace::Vec seasonal_;
  Workspace::Vec residual_;
  Workspace::Vec z_;
  OnlineCusum cusum_;
};

}  // namespace diurnal::analysis
