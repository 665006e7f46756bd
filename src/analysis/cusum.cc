#include "analysis/cusum.h"

#include <algorithm>
#include <cstdint>

namespace diurnal::analysis {

void OnlineCusum::begin(const CusumOptions& opt) {
  opt_ = opt;
  x_.clear();
  g_pos_.clear();
  g_neg_.clear();
  changes_.clear();
  i_ = 1;
  gp_ = gn_ = 0.0;
  tap_ = tan_ = 0;
  excursion_ = false;
  up_ = false;
  g_ = peak_ = 0.0;
  start_ = alarm_ = end_ = j_ = 0;
}

void OnlineCusum::confirm() {
  ChangePoint cp;
  cp.start = start_;
  cp.alarm = alarm_;
  cp.end = end_;
  cp.direction = up_ ? ChangeDirection::kUp : ChangeDirection::kDown;
  cp.amplitude = x_[end_] - x_[start_];
  changes_.push_back(cp);
  // Reset both accumulators after the excursion and resume scanning at
  // end + 1 (the batch loop's i = max(i, end) plus its increment; the
  // samples the excursion scan consumed past `end` are re-accumulated,
  // exactly as in the batch pass).
  gp_ = gn_ = 0.0;
  tap_ = tan_ = end_;
  i_ = end_ + 1;
  excursion_ = false;
}

void OnlineCusum::drive(bool at_end) {
  const std::size_t n = x_.size();
  for (;;) {
    if (excursion_) {
      // Track the excursion forward to estimate where it stops growing:
      // continue the same-direction accumulation (without drift) and
      // take the argmax; confirm once it decays to half its peak or the
      // stream ends.
      if (j_ + 1 < n) {
        ++j_;
        const double sj = x_[j_] - x_[j_ - 1];
        g_ += up_ ? sj : -sj;
        if (g_ > peak_) {
          peak_ = g_;
          end_ = j_;
        }
        if (g_ <= 0.0 || g_ < 0.5 * peak_) confirm();
      } else if (at_end) {
        confirm();
      } else {
        return;  // still growing: wait for more samples
      }
      continue;
    }
    if (i_ >= n) return;
    const double s = x_[i_] - x_[i_ - 1];
    gp_ = gp_ + s - opt_.drift;
    gn_ = gn_ - s - opt_.drift;
    if (gp_ < 0.0) {
      gp_ = 0.0;
      tap_ = i_;
    }
    if (gn_ < 0.0) {
      gn_ = 0.0;
      tan_ = i_;
    }
    g_pos_[i_] = gp_;
    g_neg_[i_] = gn_;
    if (gp_ > opt_.threshold || gn_ > opt_.threshold) {
      up_ = gp_ > opt_.threshold;
      start_ = up_ ? tap_ : tan_;
      alarm_ = i_;
      g_ = up_ ? gp_ : gn_;
      peak_ = g_;
      end_ = i_;
      j_ = i_;
      excursion_ = true;
    } else {
      ++i_;
    }
  }
}

void OnlineCusum::push(double value) {
  x_.push_back(value);
  g_pos_.push_back(0.0);
  g_neg_.push_back(0.0);
  drive(false);
}

void OnlineCusum::scan(std::span<const double> x, const CusumOptions& opt) {
  begin(opt);
  for (const double v : x) push(v);
  end_of_stream();
}

CusumResult OnlineCusum::finish() {
  drive(true);
  CusumResult res;
  res.changes = std::move(changes_);
  res.g_pos = std::move(g_pos_);
  res.g_neg = std::move(g_neg_);
  return res;
}

template <class Self, class IO>
void OnlineCusum::fields(Self& self, IO& io) {
  io.f64(self.opt_.threshold);
  io.f64(self.opt_.drift);
  io.f64_span(self.x_);
  io.f64_span(self.g_pos_);
  io.f64_span(self.g_neg_);
  // Every index drive() and confirm() will address lies inside the
  // series: the scan reads x_[i_ - 1] and writes g_pos_[i_], and a
  // zero-crossing becomes an excursion start.
  const std::size_t n = self.x_.size();
  io.seq(self.changes_, [&io, n](auto& cp) {
    io.index(cp.start, 0, n);
    io.index(cp.alarm, 0, n);
    io.index(cp.end, 0, n);
    direction_field(io, cp.direction);
    io.f64(cp.amplitude);
  });
  io.index(self.i_, 1, std::max<std::size_t>(n, 1) + 1);
  io.f64(self.gp_);
  io.f64(self.gn_);
  io.index(self.tap_, 0, self.i_ + 1);
  io.index(self.tan_, 0, self.i_ + 1);
  io.boolean(self.excursion_);
  io.boolean(self.up_);
  io.f64(self.g_);
  io.f64(self.peak_);
  const std::size_t open = self.excursion_ ? n : SIZE_MAX;  // else stale
  io.index(self.start_, 0, open);
  io.index(self.alarm_, 0, open);
  io.index(self.end_, 0, open);
  io.index(self.j_, 0, open);
}

void OnlineCusum::save(util::StateWriter& w) const { fields(*this, w); }

void OnlineCusum::restore(util::StateReader& r) {
  fields(*this, r);
  if (g_pos_.size() != x_.size() || g_neg_.size() != x_.size()) {
    util::bad_value("cusum trajectories do not match the series");
  }
}

CusumResult cusum_detect(std::span<const double> x, const CusumOptions& opt) {
  OnlineCusum c;
  c.begin(opt);
  for (const double v : x) c.push(v);
  return c.finish();
}

std::vector<DatedChange> cusum_detect_dated(const util::TimeSeries& series,
                                            const CusumOptions& opt) {
  const auto res = cusum_detect(series.span(), opt);
  std::vector<DatedChange> out;
  out.reserve(res.changes.size());
  for (const auto& cp : res.changes) {
    out.push_back(DatedChange{cp, series.time_at(cp.start),
                              series.time_at(cp.alarm), series.time_at(cp.end)});
  }
  return out;
}

}  // namespace diurnal::analysis
