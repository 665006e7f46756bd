// Logistic regression used to select under-probed blocks for additional
// probing (paper section 3.2.3): the full-block-scan time is modeled from
// |E(b)| (scanned-address count) and A (expected availability), and any
// block predicted to need more than 6 hours is scheduled for extra probes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace diurnal::analysis {

/// Gradient-descent schedule of every fit: full-batch epochs, step
/// size on the standardized features, and the L2 weight penalty.
inline constexpr int kLogisticEpochs = 400;
inline constexpr double kLogisticLearningRate = 0.5;
inline constexpr double kLogisticL2 = 1e-4;

/// A dense row-major feature-matrix view: sample i is
/// data.subspan(i * dim, dim).  data.size() must be a multiple of dim.
/// A view, not an owner — the caller keeps the backing storage alive.
struct FeatureMatrix {
  std::span<const double> data;
  std::size_t dim = 0;

  /// Explicit so brace-literals at call sites keep resolving to the
  /// nested-vector overloads instead of becoming ambiguous.
  explicit FeatureMatrix(std::span<const double> d, std::size_t k) noexcept
      : data(d), dim(k) {}

  std::size_t rows() const noexcept { return dim == 0 ? 0 : data.size() / dim; }
  std::span<const double> row(std::size_t i) const noexcept {
    return data.subspan(i * dim, dim);
  }
};

/// A binary logistic-regression model over dense feature vectors.
/// Features are standardized internally (mean/stddev from fit data).
class LogisticModel {
 public:
  /// Fits with gradient descent over a flat row-major feature matrix;
  /// labels are 0/1, one per row.  Throws on empty data, size mismatch,
  /// or data.size() not a multiple of dim.
  ///
  /// Aliasing: `features` and `labels` are read-only and may alias each
  /// other or any caller storage, but must NOT view this model's own
  /// internal buffers (weights()/bias state) — fit() reallocates them.
  void fit(FeatureMatrix features, std::span<const int> labels);

  /// Nested-vector convenience wrapper; flattens and delegates.
  /// Throws on ragged rows.  Bit-identical to the span overload.
  void fit(const std::vector<std::vector<double>>& features,
           const std::vector<int>& labels);

  /// Probability of label 1.
  double predict_proba(std::span<const double> x) const;

  /// Hard decision at the given probability cutoff.
  bool predict(std::span<const double> x, double cutoff = 0.5) const;

  const std::vector<double>& weights() const noexcept { return weights_; }
  double bias() const noexcept { return bias_; }
  bool fitted() const noexcept { return !weights_.empty(); }

 private:
  std::vector<double> weights_;
  std::vector<double> mean_;
  std::vector<double> scale_;
  double bias_ = 0.0;
};

/// Confusion-matrix summary for binary classification.
struct BinaryMetrics {
  std::int64_t tp = 0, fp = 0, tn = 0, fn = 0;
  double precision() const noexcept {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  double recall() const noexcept {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
  double accuracy() const noexcept {
    const auto total = tp + fp + tn + fn;
    return total == 0 ? 0.0 : static_cast<double>(tp + tn) / total;
  }
  double false_negative_rate() const noexcept {
    return tp + fn == 0 ? 0.0 : static_cast<double>(fn) / (tp + fn);
  }
};

/// Evaluates a fitted model against labeled data.
BinaryMetrics evaluate(const LogisticModel& model,
                       const std::vector<std::vector<double>>& features,
                       const std::vector<int>& labels, double cutoff = 0.5);

}  // namespace diurnal::analysis
