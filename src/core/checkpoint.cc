#include "core/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace diurnal::core {

namespace {

constexpr std::uint32_t kManifestMetaTag = util::state_tag("CMET");
constexpr std::uint32_t kManifestDoneTag = util::state_tag("CDON");
constexpr std::uint32_t kShardMetaTag = util::state_tag("SMET");
constexpr std::uint32_t kShardOutcomesTag = util::state_tag("OUTC");
constexpr std::uint32_t kShardDegradationTag = util::state_tag("DEGR");
constexpr std::uint32_t kShardAggregateTag = util::state_tag("AGGR");
constexpr std::uint32_t kShardSeriesTag = util::state_tag("SERI");

[[noreturn]] void mismatch(const char* what) {
  throw util::StateError(util::StateErrorKind::kBadValue, what);
}

void fingerprint_opt(util::StateWriter& w, const std::optional<double>& v) {
  w.boolean(v.has_value());
  if (v) w.f64(*v);
}

void fingerprint_event(util::StateWriter& w, const sim::Event& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.str(e.name);
  w.boolean(e.scope.country_code.has_value());
  if (e.scope.country_code) w.str(*e.scope.country_code);
  w.boolean(e.scope.cell.has_value());
  if (e.scope.cell) {
    w.i64(e.scope.cell->lat_idx);
    w.i64(e.scope.cell->lon_idx);
  }
  w.i64(e.start);
  w.i64(e.end);
  w.f64(e.adoption);
  w.f64(e.residual_attendance);
  w.i64(e.ramp_days);
}

void fingerprint_layer(util::StateWriter& w,
                       const sim::CountryLayerOverride& o) {
  w.str(o.code);
  fingerprint_opt(w, o.diurnal_visible_fraction);
  fingerprint_opt(w, o.cgnat_fraction);
  fingerprint_opt(w, o.renumber_multiplier);
  fingerprint_opt(w, o.outage_multiplier);
  w.boolean(o.dst.has_value());
  if (o.dst) w.u8(static_cast<std::uint8_t>(*o.dst));
  w.u64(o.holidays.size());
  for (const auto& h : o.holidays) {
    w.str(h.name);
    w.i64(h.month);
    w.i64(h.day);
    w.i64(h.duration_days);
    w.f64(h.adoption);
    w.f64(h.residual_attendance);
  }
  fingerprint_opt(w, o.adoption_trend_per_year);
  fingerprint_opt(w, o.cgnat_trend_per_year);
}

void fingerprint_dataset(util::StateWriter& w, const DatasetSpec& ds) {
  w.str(ds.abbr);
  w.str(ds.sites);
  w.boolean(ds.survey);
  w.i64(ds.duration_weeks);
  const auto window = ds.window();
  w.i64(window.start);
  w.i64(window.end);
}

}  // namespace

void save_state(util::StateWriter& w, const BlockClassification& c) {
  w.boolean(c.responsive);
  w.boolean(c.diurnal);
  w.boolean(c.wide_swing);
  w.boolean(c.change_sensitive);
  w.boolean(c.low_confidence);
  w.f64(c.evidence_fraction);
  w.boolean(c.diurnal_detail.diurnal);
  w.f64(c.diurnal_detail.power_ratio);
  w.f64(c.diurnal_detail.total_power);
  w.f64(c.diurnal_detail.diurnal_power);
  w.i64(c.diurnal_detail.segments);
  w.i64(c.diurnal_detail.segments_diurnal);
  w.boolean(c.swing_detail.wide);
  w.i64(c.swing_detail.wide_days);
  w.i64(c.swing_detail.total_days);
  w.f64(c.swing_detail.max_daily_swing);
  w.i64(c.swing_detail.best_window_wide);
}

void restore_state(util::StateReader& r, BlockClassification& c) {
  c.responsive = r.boolean();
  c.diurnal = r.boolean();
  c.wide_swing = r.boolean();
  c.change_sensitive = r.boolean();
  c.low_confidence = r.boolean();
  c.evidence_fraction = r.f64();
  c.diurnal_detail.diurnal = r.boolean();
  c.diurnal_detail.power_ratio = r.f64();
  c.diurnal_detail.total_power = r.f64();
  c.diurnal_detail.diurnal_power = r.f64();
  c.diurnal_detail.segments = static_cast<int>(r.i64());
  c.diurnal_detail.segments_diurnal = static_cast<int>(r.i64());
  c.swing_detail.wide = r.boolean();
  c.swing_detail.wide_days = static_cast<int>(r.i64());
  c.swing_detail.total_days = static_cast<int>(r.i64());
  c.swing_detail.max_daily_swing = r.f64();
  c.swing_detail.best_window_wide = static_cast<int>(r.i64());
}

void save_state(util::StateWriter& w, const fault::BlockDegradation& d) {
  w.i64(d.configured_observers);
  w.i64(d.live_observers);
  w.i64(d.partial_observers);
  w.u64(d.dropped_observations);
  w.u64(d.corrupted_observations);
  w.f64(d.evidence_fraction);
  w.f64(d.max_gap_hours);
  w.boolean(d.low_confidence);
}

void restore_state(util::StateReader& r, fault::BlockDegradation& d) {
  d.configured_observers = static_cast<int>(r.i64());
  d.live_observers = static_cast<int>(r.i64());
  d.partial_observers = static_cast<int>(r.i64());
  d.dropped_observations = static_cast<std::size_t>(r.u64());
  d.corrupted_observations = static_cast<std::size_t>(r.u64());
  d.evidence_fraction = r.f64();
  d.max_gap_hours = r.f64();
  d.low_confidence = r.boolean();
}

void save_state(util::StateWriter& w, const DetectedChange& c) {
  w.i64(c.start);
  w.i64(c.alarm);
  w.i64(c.end);
  w.u8(c.direction == analysis::ChangeDirection::kUp ? 1 : 0);
  w.f64(c.amplitude);
  w.f64(c.amplitude_addresses);
  w.boolean(c.filtered_as_outage);
  w.boolean(c.filtered_small);
  w.boolean(c.filtered_phase_only);
  w.boolean(c.low_evidence);
}

void restore_state(util::StateReader& r, DetectedChange& c) {
  c.start = r.i64();
  c.alarm = r.i64();
  c.end = r.i64();
  c.direction = r.u8() != 0 ? analysis::ChangeDirection::kUp
                            : analysis::ChangeDirection::kDown;
  c.amplitude = r.f64();
  c.amplitude_addresses = r.f64();
  c.filtered_as_outage = r.boolean();
  c.filtered_small = r.boolean();
  c.filtered_phase_only = r.boolean();
  c.low_evidence = r.boolean();
}

void save_state(util::StateWriter& w, const BlockOutcome& o) {
  w.u32(o.id.id());
  save_state(w, o.cls);
  w.u64(o.changes.size());
  for (const DetectedChange& c : o.changes) save_state(w, c);
}

void restore_state(util::StateReader& r, BlockOutcome& o) {
  o.id = net::BlockId(r.u32());
  restore_state(r, o.cls);
  const std::uint64_t n = r.u64();
  o.changes.clear();
  o.changes.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    DetectedChange c;
    restore_state(r, c);
    o.changes.push_back(c);
  }
}

std::uint64_t checkpoint_fingerprint(const sim::WorldConfig& world,
                                     const FleetConfig& config,
                                     std::uint64_t shard_size) {
  util::StateWriter w;
  w.begin_section(util::state_tag("FPRT"));
  // World universe.
  w.u64(world.seed);
  w.i64(world.num_blocks);
  w.f64(world.responsive_fraction);
  w.f64(world.diurnal_scale);
  w.f64(world.outage_rate_per_90d);
  w.f64(world.renumber_probability);
  w.f64(world.occupancy_churn);
  w.boolean(world.stable_population);
  w.i64(world.horizon_start);
  w.i64(world.horizon_end);
  w.boolean(world.include_special_blocks);
  w.boolean(world.only_country.has_value());
  if (world.only_country) w.str(*world.only_country);
  w.boolean(world.quiet_calendar);
  // Full calendar and country-layer content, not just counts: two
  // worlds whose planted events differ only in a date, an adoption
  // rate, or a ramp width are different experiments and must not share
  // resumable state.
  w.u64(world.calendar.size());
  for (const auto& e : world.calendar) fingerprint_event(w, e);
  w.u64(world.country_layers.size());
  for (const auto& o : world.country_layers) fingerprint_layer(w, o);
  // Windows and observers.
  fingerprint_dataset(w, config.dataset);
  w.boolean(config.classify_dataset.has_value());
  if (config.classify_dataset) fingerprint_dataset(w, *config.classify_dataset);
  // Loss model and fault plan (spec fields, not just counts: two plans
  // with the same shape but different windows must not collide).
  w.f64(config.loss.base_loss);
  w.f64(config.loss.congested_destination_fraction);
  w.f64(config.loss.congested_peak_loss);
  w.u8(static_cast<std::uint8_t>(config.loss.congested_observer));
  w.u64(config.loss.seed);
  w.boolean(config.loss.enable_congestion);
  w.u64(config.faults.seed);
  w.u64(config.faults.outages.size());
  for (const auto& o : config.faults.outages) {
    w.u8(static_cast<std::uint8_t>(o.observer));
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.i64(o.start);
    w.i64(o.end);
    w.i64(o.flap_period);
    w.f64(o.flap_down_fraction);
  }
  w.u64(config.faults.skews.size());
  for (const auto& s : config.faults.skews) {
    w.u8(static_cast<std::uint8_t>(s.observer));
    w.i64(s.skew_seconds);
    w.f64(s.drift_ppm);
  }
  w.u64(config.faults.bursts.size());
  for (const auto& b : config.faults.bursts) {
    w.u8(static_cast<std::uint8_t>(b.observer));
    w.f64(b.rate);
    w.i64(b.mean_interval);
    w.i64(b.mean_duration);
    w.i64(b.start);
    w.i64(b.end);
  }
  w.u64(config.faults.truncations.size());
  for (const auto& t : config.faults.truncations) {
    w.u8(static_cast<std::uint8_t>(t.observer));
    w.f64(t.prob);
    w.i64(t.start);
    w.i64(t.end);
  }
  // Pipeline toggles and key analysis knobs.  Thread count, batch width
  // and residency caps are deliberately absent: the determinism contract
  // makes them invisible in the output.
  w.boolean(config.one_loss_repair);
  w.boolean(config.additional_observations);
  w.boolean(config.run_detection);
  w.f64(config.classifier.min_evidence_fraction);
  w.i64(config.detector.period_seconds);
  w.u8(config.detector.trend_model == TrendModel::kStl ? 0 : 1);
  w.f64(config.detector.cusum.threshold);
  w.f64(config.detector.cusum.drift);
  w.i64(config.detector.outage_pair_window);
  w.f64(config.detector.outage_amplitude_ratio);
  w.i64(config.detector.max_outage_duration);
  w.f64(config.detector.outage_level_fraction);
  w.f64(config.detector.min_change_addresses);
  w.boolean(config.detector.phase_shift_filter);
  w.f64(config.detector.phase_corroboration_ratio);
  w.i64(config.recon.sample_step);
  w.i64(config.recon.stale_horizon);
  w.u64(shard_size);
  w.end_section();

  // FNV-1a over the serialized image.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : w.bytes()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

CheckpointManager::CheckpointManager(std::string dir,
                                     std::uint64_t fingerprint,
                                     std::size_t total_blocks,
                                     std::size_t shard_size,
                                     std::size_t manifest_every)
    : dir_(std::move(dir)),
      fingerprint_(fingerprint),
      total_blocks_(total_blocks),
      shard_size_(shard_size),
      manifest_every_(manifest_every == 0 ? 1 : manifest_every) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw util::StateError(util::StateErrorKind::kIo,
                           "cannot create checkpoint directory " + dir_);
  }
}

std::string CheckpointManager::shard_path(std::size_t k) const {
  return dir_ + "/shard-" + std::to_string(k) + ".ckpt";
}

std::string CheckpointManager::manifest_path() const {
  return dir_ + "/manifest.ckpt";
}

std::vector<std::size_t> CheckpointManager::load_manifest() {
  std::vector<std::uint8_t> image;
  try {
    image = util::read_state_file(manifest_path());
  } catch (const util::StateError&) {
    return {};  // no manifest yet: a fresh run
  }
  util::StateReader r(image);
  r.begin_section(kManifestMetaTag);
  const std::uint64_t fp = r.u64();
  const std::uint64_t total = r.u64();
  const std::uint64_t ssize = r.u64();
  r.end_section();
  if (fp != fingerprint_) {
    mismatch("manifest was written under a different configuration");
  }
  if (total != total_blocks_ || ssize != shard_size_) {
    mismatch("manifest covers a different block universe");
  }
  r.begin_section(kManifestDoneTag);
  const std::uint64_t n = r.u64();
  std::vector<std::size_t> done;
  done.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    done.push_back(static_cast<std::size_t>(r.u64()));
  }
  r.end_section();
  return done;
}

ShardCheckpoint CheckpointManager::load_shard(std::size_t k) {
  const std::vector<std::uint8_t> image =
      util::read_state_file(shard_path(k));
  util::StateReader r(image);
  ShardCheckpoint out;

  r.begin_section(kShardMetaTag);
  const std::uint64_t fp = r.u64();
  const std::uint64_t shard = r.u64();
  out.begin = static_cast<std::size_t>(r.u64());
  out.end = static_cast<std::size_t>(r.u64());
  r.end_section();
  if (fp != fingerprint_) {
    mismatch("shard checkpoint was written under a different configuration");
  }
  if (shard != k || out.end < out.begin || out.end > total_blocks_ ||
      out.begin != k * shard_size_) {
    mismatch("shard checkpoint does not match its slot");
  }
  const std::size_t rows = out.end - out.begin;

  r.begin_section(kShardOutcomesTag);
  const std::uint64_t n_out = r.u64();
  if (n_out != rows) mismatch("shard outcome count does not match its span");
  out.outcomes.resize(rows);
  for (auto& o : out.outcomes) restore_state(r, o);
  r.end_section();

  r.begin_section(kShardDegradationTag);
  const std::uint64_t n_deg = r.u64();
  if (n_deg != rows) {
    mismatch("shard degradation count does not match its span");
  }
  out.degradation.resize(rows);
  for (auto& d : out.degradation) restore_state(r, d);
  r.end_section();

  r.begin_section(kShardAggregateTag);
  out.aggregate.restore(r);
  r.end_section();

  if (r.has_section()) {
    r.begin_section(kShardSeriesTag);
    out.series.restore(r);
    r.end_section();
    if (out.series.rows() != rows) {
      mismatch("shard series row count does not match its span");
    }
    out.has_series = true;
  }

  const std::lock_guard<std::mutex> lock(mu_);
  completed_.insert(k);
  return out;
}

void CheckpointManager::record_shard(std::size_t k, std::size_t begin,
                                     std::size_t end,
                                     const FleetResult& fleet,
                                     const ChangeAggregator& agg,
                                     bool with_series) {
  util::StateWriter w;
  w.begin_section(kShardMetaTag);
  w.u64(fingerprint_);
  w.u64(k);
  w.u64(begin);
  w.u64(end);
  w.end_section();

  w.begin_section(kShardOutcomesTag);
  w.u64(end - begin);
  for (std::size_t i = begin; i < end; ++i) save_state(w, fleet.outcomes[i]);
  w.end_section();

  w.begin_section(kShardDegradationTag);
  w.u64(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    save_state(w, fleet.degradation.blocks[i]);
  }
  w.end_section();

  w.begin_section(kShardAggregateTag);
  agg.save(w);
  w.end_section();

  if (with_series) {
    // Re-frame the shard's rows from the global store (the shard-local
    // store is already retired by the time the fold completes).
    SeriesStore slice;
    slice.reset(end - begin, fleet.series.stride(), fleet.series.start(),
                fleet.series.step());
    for (std::size_t i = begin; i < end; ++i) {
      const auto src = fleet.series.series(i);
      const auto dst = slice.row(i - begin);
      std::copy(src.begin(), src.end(), dst.begin());
      slice.set_len(i - begin, src.size());
    }
    w.begin_section(kShardSeriesTag);
    slice.save(w);
    w.end_section();
  }

  util::write_state_file(shard_path(k), w.bytes());

  const std::lock_guard<std::mutex> lock(mu_);
  completed_.insert(k);
  dirty_ = true;
  if (++unflushed_ >= manifest_every_) {
    write_manifest_locked();
  }
}

void CheckpointManager::flush_manifest() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_) return;
  write_manifest_locked();
}

std::size_t CheckpointManager::manifest_writes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return manifest_writes_;
}

void CheckpointManager::write_manifest_locked() {
  util::StateWriter w;
  w.begin_section(kManifestMetaTag);
  w.u64(fingerprint_);
  w.u64(total_blocks_);
  w.u64(shard_size_);
  w.end_section();
  w.begin_section(kManifestDoneTag);
  w.u64(completed_.size());
  for (const std::size_t k : completed_) w.u64(k);
  w.end_section();
  util::write_state_file(manifest_path(), w.bytes());
  unflushed_ = 0;
  dirty_ = false;
  ++manifest_writes_;
}

}  // namespace diurnal::core
