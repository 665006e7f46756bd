#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/digest.h"

namespace diurnal::core {

namespace {

constexpr std::uint32_t kShardMetaTag = util::state_tag("SMET");
constexpr std::uint32_t kShardOutcomesTag = util::state_tag("OUTC");
constexpr std::uint32_t kShardDegradationTag = util::state_tag("DEGR");
constexpr std::uint32_t kShardAggregateTag = util::state_tag("AGGR");
constexpr std::uint32_t kRunFingerprintTag = util::state_tag("CLIM");

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
  w.seq(o.holidays, [&w](const auto& h) {
    w.str(h.name);
    w.i64(h.month);
    w.i64(h.day);
    w.i64(h.duration_days);
    w.f64(h.adoption);
    w.f64(h.residual_attendance);
  });
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

/// SMET: the run and slot a shard file belongs to, and its block span.
template <class IO, class Size>
void shard_meta(IO& io, std::uint64_t fingerprint, std::size_t k,
                Size& begin, Size& end) {
  io.begin_section(kShardMetaTag);
  io.expect(fingerprint,
            "shard checkpoint was written under a different configuration");
  io.expect(k, "shard checkpoint does not match its slot");
  io.u64(begin);
  io.u64(end);
  io.end_section();
}

/// OUTC, DEGR and AGGR: the shard's result rows and its aggregator.
template <class IO, class Outcome, class Degradation, class Aggregator>
void shard_rows(IO& io, std::span<Outcome> outcomes,
                std::span<Degradation> degradation, Aggregator& agg) {
  io.begin_section(kShardOutcomesTag);
  io.expect(outcomes.size(), "shard outcome count does not match its span");
  for (auto& o : outcomes) fields(io, o);
  io.end_section();
  io.begin_section(kShardDegradationTag);
  io.expect(degradation.size(),
            "shard degradation count does not match its span");
  for (auto& d : degradation) fields(io, d);
  io.end_section();
  io.begin_section(kShardAggregateTag);
  io.nested(agg);
  io.end_section();
}

/// CLIM: the head of a run file.  A reader fails with kBadValue unless
/// the fingerprint matches.
template <class IO>
void run_fingerprint(IO& io, std::uint64_t fingerprint) {
  io.begin_section(kRunFingerprintTag);
  io.expect(fingerprint,
            "checkpoint was written under a different configuration");
  io.end_section();
}

/// Creates a checkpoint directory, or throws StateError(kIo).
void create_checkpoint_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw util::StateError(util::StateErrorKind::kIo,
                           "cannot create checkpoint directory " + dir);
  }
}

}  // namespace

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
  w.seq(world.calendar, [&w](const auto& e) { fingerprint_event(w, e); });
  w.seq(world.country_layers, [&w](const auto& o) { fingerprint_layer(w, o); });
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
  w.seq(config.faults.outages, [&w](const auto& o) {
    w.u8(static_cast<std::uint8_t>(o.observer));
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.i64(o.start);
    w.i64(o.end);
    w.i64(o.flap_period);
    w.f64(o.flap_down_fraction);
  });
  w.seq(config.faults.skews, [&w](const auto& s) {
    w.u8(static_cast<std::uint8_t>(s.observer));
    w.i64(s.skew_seconds);
    w.f64(s.drift_ppm);
  });
  w.seq(config.faults.bursts, [&w](const auto& b) {
    w.u8(static_cast<std::uint8_t>(b.observer));
    w.f64(b.rate);
    w.i64(b.mean_interval);
    w.i64(b.mean_duration);
    w.i64(b.start);
    w.i64(b.end);
  });
  w.seq(config.faults.truncations, [&w](const auto& t) {
    w.u8(static_cast<std::uint8_t>(t.observer));
    w.f64(t.prob);
    w.i64(t.start);
    w.i64(t.end);
  });
  // Pipeline toggles and key analysis knobs.  Thread count, batch width
  // and residency caps are deliberately absent: the determinism contract
  // makes them invisible in the output.
  w.boolean(config.one_loss_repair);
  w.boolean(config.additional_observations);
  w.boolean(config.run_detection);
  w.f64(config.classifier.min_evidence_fraction);
  w.i64(config.detector.period_seconds);
  // The retired trend-model byte: STL, the only model, wrote 0, so
  // fingerprints and checkpoints written before its removal still match.
  w.u8(0);
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

  Fnv1a h;
  h.bytes(w.bytes());
  return h.h;
}

CheckpointManager::CheckpointManager(std::string dir,
                                     std::uint64_t fingerprint,
                                     std::size_t total_blocks,
                                     std::size_t shard_size)
    : dir_(std::move(dir)),
      fingerprint_(fingerprint),
      total_blocks_(total_blocks),
      shard_size_(shard_size) {
  create_checkpoint_dir(dir_);
}

std::string CheckpointManager::shard_path(std::size_t k) const {
  return dir_ + "/shard-" + std::to_string(k) + ".ckpt";
}

std::vector<std::size_t> CheckpointManager::load_manifest() const {
  const std::size_t slots =
      shard_size_ == 0 ? 0 : (total_blocks_ + shard_size_ - 1) / shard_size_;
  std::vector<std::size_t> present;
  for (std::size_t k = 0; k < slots; ++k) {
    std::error_code ec;
    if (std::filesystem::exists(shard_path(k), ec)) present.push_back(k);
  }
  return present;
}

ShardCheckpoint CheckpointManager::load_shard(std::size_t k) const {
  const std::vector<std::uint8_t> image =
      util::read_state_file(shard_path(k));
  util::StateReader r(image);
  ShardCheckpoint out;
  shard_meta(r, fingerprint_, k, out.begin, out.end);
  if (out.begin != k * shard_size_ || out.begin >= total_blocks_ ||
      out.end != std::min(out.begin + shard_size_, total_blocks_)) {
    util::bad_value("shard checkpoint does not match its slot");
  }
  out.outcomes.resize(out.end - out.begin);
  out.degradation.resize(out.end - out.begin);
  shard_rows(r, std::span(out.outcomes), std::span(out.degradation),
             out.aggregate);
  return out;
}

void CheckpointManager::record_shard(std::size_t k, std::size_t begin,
                                     std::size_t end,
                                     const FleetResult& fleet,
                                     const ChangeAggregator& agg) const {
  util::StateWriter w;
  shard_meta(w, fingerprint_, k, begin, end);
  const std::size_t rows = end - begin;
  shard_rows(w, std::span(fleet.outcomes).subspan(begin, rows),
             std::span(fleet.degradation.blocks).subspan(begin, rows), agg);

  util::write_state_file(shard_path(k), w.bytes());
}

RunCheckpoint::RunCheckpoint(const std::string& dir, const std::string& name,
                             const sim::WorldConfig& world,
                             const FleetConfig& config)
    : path_(dir + "/" + name),
      fingerprint_(checkpoint_fingerprint(world, config, 0)) {
  create_checkpoint_dir(dir);
}

std::optional<std::string> RunCheckpoint::read(
    const std::function<void(util::StateReader&)>& restore) const {
  try {
    const std::vector<std::uint8_t> image = util::read_state_file(path_);
    util::StateReader r(image);
    run_fingerprint(r, fingerprint_);
    restore(r);
  } catch (const util::StateError& e) {
    return e.what();
  }
  return std::nullopt;
}

void RunCheckpoint::write(
    const std::function<void(util::StateWriter&)>& save) const {
  util::StateWriter w;
  run_fingerprint(w, fingerprint_);
  save(w);
  util::write_state_file(path_, w.bytes());
}

void RunCheckpoint::discard() const { std::remove(path_.c_str()); }

}  // namespace diurnal::core
