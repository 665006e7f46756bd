// Two-sided CUSUM change-point detection (paper section 2.6).
//
// Follows the `detecta` detect_cusum semantics (Duarte 2020; Gustafsson
// 2000): accumulate successive differences against a drift term; alarm
// when either the positive or negative accumulator exceeds the
// threshold; the change start is the last time that accumulator was
// zero.  The paper applies it to the z-score-normalized STL trend with
// threshold 1 and drift 0.001.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/state_io.h"

namespace diurnal::analysis {

enum class ChangeDirection { kUp, kDown };

/// A ChangeDirection inside a state field list: one boolean byte, set
/// for kUp.
template <class IO, class Direction>
void direction_field(IO& io, Direction& d) {
  bool up = d == ChangeDirection::kUp;
  io.boolean(up);
  if constexpr (IO::kReading) {
    d = up ? ChangeDirection::kUp : ChangeDirection::kDown;
  }
}

/// One detected change.
struct ChangePoint {
  std::size_t start = 0;  ///< index where the accumulator left zero
  std::size_t alarm = 0;  ///< index where the threshold was crossed
  std::size_t end = 0;    ///< index where the excursion stopped growing
  ChangeDirection direction = ChangeDirection::kDown;
  double amplitude = 0.0;  ///< x[end] - x[start]
};

struct CusumOptions {
  double threshold = 1.0;
  double drift = 0.001;
};

struct CusumResult {
  std::vector<ChangePoint> changes;
  /// Cumulative positive/negative sums per sample (for plotting, as in
  /// the paper's Figure 1c lower panel).
  std::vector<double> g_pos;
  std::vector<double> g_neg;
};

/// Resumable two-sided CUSUM: the batch scan carved into begin / push /
/// finish so the streaming engine can drive detection as samples arrive
/// and still confirm the byte-identical change points.  The batch scan
/// looks ahead after an alarm (the excursion's end is the argmax of the
/// continued accumulation, confirmed when it decays or the series
/// ends); push() therefore advances only as far as the data decides —
/// an excursion still growing at the end of the pushed prefix stays
/// open until more samples arrive or finish() declares end-of-stream.
/// confirmed() is a stable prefix: a change, once reported, is final.
/// cusum_detect() below is one full pass of this machine.
class OnlineCusum {
 public:
  /// Re-initializes, reusing internal buffers.
  void begin(const CusumOptions& opt = {});

  /// Feeds the next sample and advances the scan as far as decidable.
  void push(double value);

  /// Changes confirmed so far — batch-identical indices into the pushed
  /// sequence, in confirmation order.
  const std::vector<ChangePoint>& confirmed() const noexcept {
    return changes_;
  }

  /// Samples pushed so far.
  std::size_t size() const noexcept { return x_.size(); }

  /// End of stream without relinquishing buffers: resolves any open
  /// excursion exactly as the batch scan does at the series end.  After
  /// this, confirmed()/g_pos()/g_neg() hold the complete batch result;
  /// the views stay valid until the next begin().  Use instead of
  /// finish() when the machine is reused block after block — begin()
  /// then recycles every internal buffer, so a warm machine scans
  /// without allocating.
  void end_of_stream() { drive(true); }

  /// One full batch pass reusing this machine's buffers: begin + push
  /// all + end_of_stream.  Equivalent to cusum_detect(x, opt) with the
  /// result read through confirmed()/g_pos()/g_neg().
  void scan(std::span<const double> x, const CusumOptions& opt = {});

  /// Accumulator trajectories over the pushed prefix (batch-identical
  /// after end_of_stream; the scan's undecided tail is zero-filled).
  std::span<const double> g_pos() const noexcept { return g_pos_; }
  std::span<const double> g_neg() const noexcept { return g_neg_; }

  /// End of stream: resolves any open excursion exactly as the batch
  /// scan does at the series end, and moves out the full result.  The
  /// state is spent afterwards; call begin() to reuse it (moved-out
  /// buffers are re-allocated — prefer end_of_stream() in reuse loops).
  CusumResult finish();

  /// Serializes the complete machine — options, pushed samples,
  /// accumulator trajectories, confirmed changes and any open
  /// excursion.  restore() needs no begin(): it overwrites everything,
  /// after which push()/end_of_stream() continue bitwise-identically to
  /// the saved scan.  A restored index outside the restored series
  /// throws StateError(kBadValue).
  void save(util::StateWriter& w) const;
  void restore(util::StateReader& r);

 private:
  template <class Self, class IO>
  static void fields(Self& self, IO& io);  // the layout, in wire order

  void drive(bool at_end);
  void confirm();

  CusumOptions opt_{};
  std::vector<double> x_;
  std::vector<double> g_pos_;
  std::vector<double> g_neg_;
  std::vector<ChangePoint> changes_;
  std::size_t i_ = 1;  ///< next index the scan will process
  double gp_ = 0.0, gn_ = 0.0;
  std::size_t tap_ = 0, tan_ = 0;  ///< last zero-crossings
  // Open-excursion state (valid while excursion_).
  bool excursion_ = false;
  bool up_ = false;
  double g_ = 0.0, peak_ = 0.0;
  std::size_t start_ = 0, alarm_ = 0, end_ = 0;
  std::size_t j_ = 0;  ///< last index consumed by the excursion scan
};

/// Runs two-sided CUSUM over x.  One full pass of the OnlineCusum
/// machine.
CusumResult cusum_detect(std::span<const double> x, const CusumOptions& opt = {});

}  // namespace diurnal::analysis
