#include "analysis/logistic.h"

#include <cmath>
#include <stdexcept>

namespace diurnal::analysis {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

void LogisticModel::fit(FeatureMatrix features, std::span<const int> labels) {
  if (features.dim == 0 || features.data.size() % features.dim != 0) {
    throw std::invalid_argument("LogisticModel::fit: bad feature matrix");
  }
  const std::size_t n = features.rows();
  const std::size_t d = features.dim;
  if (n == 0 || n != labels.size()) {
    throw std::invalid_argument("LogisticModel::fit: bad training data");
  }

  // Standardize features for stable gradient descent.
  mean_.assign(d, 0.0);
  scale_.assign(d, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = features.row(i);
    for (std::size_t j = 0; j < d; ++j) mean_[j] += f[j];
  }
  for (auto& m : mean_) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = features.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      const double dv = f[j] - mean_[j];
      var[j] += dv * dv;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(n));
    scale_[j] = sd > 1e-12 ? sd : 1.0;
  }

  weights_.assign(d, 0.0);
  bias_ = 0.0;
  std::vector<double> grad(d);
  for (int epoch = 0; epoch < kLogisticEpochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto f = features.row(i);
      double z = bias_;
      for (std::size_t j = 0; j < d; ++j) {
        z += weights_[j] * (f[j] - mean_[j]) / scale_[j];
      }
      const double err = sigmoid(z) - static_cast<double>(labels[i]);
      for (std::size_t j = 0; j < d; ++j) {
        grad[j] += err * (f[j] - mean_[j]) / scale_[j];
      }
      grad_b += err;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < d; ++j) {
      weights_[j] -=
          kLogisticLearningRate * (grad[j] * inv_n + kLogisticL2 * weights_[j]);
    }
    bias_ -= kLogisticLearningRate * grad_b * inv_n;
  }
}

void LogisticModel::fit(const std::vector<std::vector<double>>& features,
                        const std::vector<int>& labels) {
  if (features.empty() || features.size() != labels.size()) {
    throw std::invalid_argument("LogisticModel::fit: bad training data");
  }
  const std::size_t d = features[0].size();
  for (const auto& f : features) {
    if (f.size() != d) {
      throw std::invalid_argument("LogisticModel::fit: ragged features");
    }
  }
  std::vector<double> flat;
  flat.reserve(features.size() * d);
  for (const auto& f : features) flat.insert(flat.end(), f.begin(), f.end());
  fit(FeatureMatrix{flat, d}, labels);
}

double LogisticModel::predict_proba(std::span<const double> x) const {
  if (!fitted() || x.size() != weights_.size()) {
    throw std::invalid_argument("LogisticModel::predict_proba: bad input");
  }
  double z = bias_;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    z += weights_[j] * (x[j] - mean_[j]) / scale_[j];
  }
  return sigmoid(z);
}

bool LogisticModel::predict(std::span<const double> x, double cutoff) const {
  return predict_proba(x) >= cutoff;
}

BinaryMetrics evaluate(const LogisticModel& model,
                       const std::vector<std::vector<double>>& features,
                       const std::vector<int>& labels, double cutoff) {
  BinaryMetrics m;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const bool pred = model.predict(features[i], cutoff);
    const bool truth = labels[i] != 0;
    if (pred && truth) ++m.tp;
    else if (pred && !truth) ++m.fp;
    else if (!pred && truth) ++m.fn;
    else ++m.tn;
  }
  return m;
}

}  // namespace diurnal::analysis
