// Streaming-engine equivalence and edge cases: every resumable stage
// (prober, fault injection, repair, CUSUM), the per-block BlockStream,
// and the fleet-level epoch drive must finalize byte-identical to the
// per-stage batch pipeline, composed here from tests/oracle's
// whole-window references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cusum.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "oracle.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/repair.h"
#include "recon/stream.h"
#include "sim/world.h"
#include "util/date.h"

namespace diurnal {
namespace {

using probe::ObservationVec;
using probe::ProbeWindow;

const sim::World& small_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 60;
    c.seed = 7;
    return c;
  }());
  return world;
}

// What the per-stage pipeline reports for one block.
struct OracleResult {
  recon::ReconResult recon;
  std::vector<fault::ObserverStreamInfo> observers;
};

// The per-stage pipeline (probe -> faults -> repair -> merge ->
// reconstruct), whole-window per stage: the ground truth the streaming
// pipeline must reproduce bit-for-bit.
OracleResult batch_oracle(
    const sim::BlockProfile& block, const recon::BlockObservationConfig& oc) {
  const std::size_t n =
      oc.observers.size() + (oc.additional_observations ? 1 : 0);
  std::vector<ObservationVec> streams(n);
  OracleResult out;
  out.observers.assign(n, {});
  const bool inject = oc.faults != nullptr && !oc.faults->empty();
  for (std::size_t i = 0; i < n; ++i) {
    const bool extra = i >= oc.observers.size();
    probe::ProberConfig pc = oc.prober;
    if (extra) pc.kind = probe::ProberKind::kAdditional;
    const probe::ObserverSpec spec =
        extra ? probe::additional_observer() : oc.observers[i];
    streams[i] = oracle::probe_block(block, spec, oc.loss, oc.window, pc);
    fault::StreamFaultStats stats;
    if (inject) {
      fault::FaultCarry carry;
      stats = fault::apply_faults_chunk(*oc.faults, spec.code, oc.window,
                                        streams[i], 0, carry);
    }
    auto& si = out.observers[i];
    si.code = spec.code;
    si.observations = streams[i].size();
    si.faults = stats;
    if (!streams[i].empty()) {
      si.first_rel = streams[i].front().rel_time;
      si.last_rel = streams[i].back().rel_time;
    }
    if (oc.one_loss_repair) oracle::one_loss_repair(streams[i]);
  }
  ObservationVec merged;
  oracle::merge_observations_into(streams, merged);
  out.recon =
      oracle::reconstruct(merged, block.eb_count, oc.window, oc.recon);
  return out;
}

void expect_recon_equal(const recon::ReconResult& got,
                        const recon::ReconResult& want) {
  ASSERT_EQ(got.counts.size(), want.counts.size());
  EXPECT_EQ(got.counts.start(), want.counts.start());
  EXPECT_EQ(got.counts.step(), want.counts.step());
  for (std::size_t i = 0; i < want.counts.size(); ++i) {
    ASSERT_EQ(got.counts[i], want.counts[i]) << "sample " << i;
  }
  EXPECT_EQ(got.responsive, want.responsive);
  EXPECT_EQ(got.mean_reply_rate, want.mean_reply_rate);
  EXPECT_EQ(got.observations, want.observations);
  EXPECT_EQ(got.eb_count, want.eb_count);
  EXPECT_EQ(got.observed_targets, want.observed_targets);
  EXPECT_EQ(got.max_active, want.max_active);
  EXPECT_EQ(got.evidence_fraction, want.evidence_fraction);
  EXPECT_EQ(got.max_gap_seconds, want.max_gap_seconds);
  ASSERT_EQ(got.gaps.size(), want.gaps.size());
  for (std::size_t i = 0; i < want.gaps.size(); ++i) {
    EXPECT_EQ(got.gaps[i].start, want.gaps[i].start);
    EXPECT_EQ(got.gaps[i].end, want.gaps[i].end);
  }
  ASSERT_EQ(got.fbs_spans_seconds.size(), want.fbs_spans_seconds.size());
  for (std::size_t i = 0; i < want.fbs_spans_seconds.size(); ++i) {
    EXPECT_EQ(got.fbs_spans_seconds[i], want.fbs_spans_seconds[i]);
  }
}

void expect_observers_equal(
    const std::vector<fault::ObserverStreamInfo>& got,
    const std::vector<fault::ObserverStreamInfo>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].code, want[i].code);
    EXPECT_EQ(got[i].observations, want[i].observations);
    EXPECT_EQ(got[i].first_rel, want[i].first_rel);
    EXPECT_EQ(got[i].last_rel, want[i].last_rel);
    EXPECT_EQ(got[i].faults.input, want[i].faults.input);
    EXPECT_EQ(got[i].faults.dropped, want[i].faults.dropped);
    EXPECT_EQ(got[i].faults.corrupted, want[i].faults.corrupted);
    EXPECT_EQ(got[i].faults.retimed, want[i].faults.retimed);
  }
}

recon::BlockObservationConfig week_config(const fault::FaultPlan* plan) {
  recon::BlockObservationConfig oc;
  const auto ds = core::dataset("2020w2-ejnw");
  oc.observers = ds.observers();
  oc.window = ds.window();
  oc.faults = plan;
  return oc;
}

const sim::BlockProfile& responsive_block(std::size_t skip = 0) {
  for (const auto& b : small_world().blocks()) {
    if (b.eb_count > 0 && skip-- == 0) return b;
  }
  throw std::runtime_error("no responsive block");
}

// ---------------------------------------------------------------------------
// Stage equivalences
// ---------------------------------------------------------------------------

TEST(StreamProber, ChunkedResumeMatchesBatch) {
  const auto oc = week_config(nullptr);
  const auto& block = responsive_block();
  // Chunk schedules: round-aligned, prime-offset, one giant chunk, and
  // a zero-width epoch in the middle.
  const std::vector<std::int64_t> steps{util::kRoundSeconds, 3601,
                                        86400 + 17, 1 << 30};
  for (const auto& spec : oc.observers) {
    probe::ProbeScratch scratch;
    const ObservationVec batch =
        oracle::probe_block(block, spec, oc.loss, oc.window, oc.prober);
    for (const std::int64_t step : steps) {
      ObservationVec streamed;
      probe::RoundProberState st;
      probe::round_prober_begin(block, spec, oc.window, st);
      for (util::SimTime t = oc.window.start; !st.done; t += step) {
        probe::round_prober_resume(block, spec, oc.loss, oc.window, oc.prober,
                                   scratch, st, t, streamed);
        // Zero-width epoch: resuming to the same bound adds nothing.
        const std::size_t before = streamed.size();
        probe::round_prober_resume(block, spec, oc.loss, oc.window, oc.prober,
                                   scratch, st, t, streamed);
        ASSERT_EQ(streamed.size(), before);
      }
      ASSERT_EQ(streamed.size(), batch.size()) << "step " << step;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(streamed[i].rel_time, batch[i].rel_time);
        ASSERT_EQ(streamed[i].addr, batch[i].addr);
        ASSERT_EQ(streamed[i].up, batch[i].up);
      }
    }
  }
}

TEST(StreamFaults, ChunkedApplyMatchesBatch) {
  const auto ds = core::dataset("2020w2-ejnw");
  const ProbeWindow w = ds.window();
  for (const char* name : {"dropout", "bursts", "truncate", "meltdown"}) {
    const auto plan = fault::scenario(name, w);
    const auto oc = week_config(&plan);
    const auto& block = responsive_block();
    for (const auto& spec : oc.observers) {
      probe::ProbeScratch scratch;
      ObservationVec batch =
          oracle::probe_block(block, spec, oc.loss, w, oc.prober);
      fault::FaultCarry batch_carry;
      const auto batch_stats =
          fault::apply_faults_chunk(plan, spec.code, w, batch, 0, batch_carry);

      // Re-probe in chunks, injecting after each append: the streaming
      // composition.  Truncation state crosses chunks via the carry.
      ObservationVec chunked;
      probe::RoundProberState st;
      fault::FaultCarry carry;
      fault::StreamFaultStats stats;
      probe::round_prober_begin(block, spec, w, st);
      for (util::SimTime t = w.start; !st.done; t += 6 * 3600 + 13) {
        const std::size_t from = chunked.size();
        probe::round_prober_resume(block, spec, oc.loss, w, oc.prober, scratch,
                                   st, t, chunked);
        const auto s =
            fault::apply_faults_chunk(plan, spec.code, w, chunked, from, carry);
        stats.input += s.input;
        stats.dropped += s.dropped;
        stats.corrupted += s.corrupted;
        stats.retimed += s.retimed;
      }
      ASSERT_EQ(chunked.size(), batch.size()) << name << " " << spec.code;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(chunked[i].rel_time, batch[i].rel_time);
        ASSERT_EQ(chunked[i].addr, batch[i].addr);
        ASSERT_EQ(chunked[i].up, batch[i].up);
      }
      EXPECT_EQ(stats.input, batch_stats.input);
      EXPECT_EQ(stats.dropped, batch_stats.dropped);
      EXPECT_EQ(stats.corrupted, batch_stats.corrupted);
      EXPECT_EQ(stats.retimed, batch_stats.retimed);
    }
  }
}

TEST(StreamRepairTest, IncrementalMatchesBatch) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    ObservationVec stream;
    const int n = 40 + static_cast<int>(rng() % 200);
    std::uint32_t t = 0;
    for (int i = 0; i < n; ++i) {
      t += static_cast<std::uint32_t>(rng() % 900);
      stream.push_back({t, static_cast<std::uint8_t>(rng() % 6),
                        (rng() % 3) != 0});
    }
    ObservationVec batch = stream;
    oracle::one_loss_repair(batch);

    ObservationVec inc = stream;
    recon::StreamRepair repair;
    repair.reset();
    std::size_t frontier = 0;
    // Ingest the same buffer repeatedly as it "grows" (simulated by
    // trimming): feed prefixes of increasing length.
    for (std::size_t upto = 0; upto <= inc.size();
         upto += 1 + rng() % 7) {
      ObservationVec window(inc.begin(),
                            inc.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(upto, inc.size())));
      recon::StreamRepair r2;  // fresh machine over the prefix
      r2.reset();
      const std::size_t f = r2.ingest(window, 0);
      ASSERT_LE(f, window.size());
      // Released prefix of the incremental pass must already match the
      // batch result (released observations are final).
      for (std::size_t i = 0; i < f; ++i) {
        ASSERT_EQ(window[i].up, batch[i].up) << "trial " << trial;
      }
    }
    // Full ingest equals batch everywhere after finish.
    frontier = repair.ingest(inc, 0);
    ASSERT_LE(frontier, inc.size());
    frontier = repair.finish();
    EXPECT_EQ(frontier, inc.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      ASSERT_EQ(inc[i].up, batch[i].up) << "trial " << trial;
    }
  }
}

TEST(StreamRepairTest, FinalSampleHeldAtEndOfStream) {
  // Last observation of the address is a loss candidate (prev up, now
  // down) still waiting for its rescan when the stream ends: the repair
  // window closes and the observation keeps its probed value, exactly
  // as the batch pass leaves it.
  ObservationVec stream{{0, 0, true}, {600, 0, false}};
  ObservationVec batch = stream;
  oracle::one_loss_repair(batch);

  recon::StreamRepair repair;
  repair.reset();
  const std::size_t frontier = repair.ingest(stream, 0);
  EXPECT_EQ(frontier, 1u);  // the candidate at index 1 is held
  EXPECT_EQ(repair.finish(), 2u);
  EXPECT_FALSE(stream[1].up);
  EXPECT_EQ(stream[1].up, batch[1].up);
}

TEST(OnlineCusumTest, MatchesBatchOnRandomWalks) {
  std::mt19937_64 rng(2023);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 16 + rng() % 400;
    std::vector<double> x(n);
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 97 == 0) level += (rng() % 2 ? 2.0 : -2.0);
      x[i] = level + noise(rng);
    }
    const auto batch = analysis::cusum_detect(x);

    analysis::OnlineCusum online;
    online.begin();
    std::size_t confirmed_so_far = 0;
    for (const double v : x) {
      online.push(v);
      // The confirmed list is a stable prefix of the batch result.
      ASSERT_GE(online.confirmed().size(), confirmed_so_far);
      confirmed_so_far = online.confirmed().size();
      ASSERT_LE(confirmed_so_far, batch.changes.size());
    }
    const auto res = online.finish();
    ASSERT_EQ(res.changes.size(), batch.changes.size()) << "trial " << trial;
    for (std::size_t i = 0; i < batch.changes.size(); ++i) {
      EXPECT_EQ(res.changes[i].start, batch.changes[i].start);
      EXPECT_EQ(res.changes[i].alarm, batch.changes[i].alarm);
      EXPECT_EQ(res.changes[i].end, batch.changes[i].end);
      EXPECT_EQ(res.changes[i].direction, batch.changes[i].direction);
      EXPECT_EQ(res.changes[i].amplitude, batch.changes[i].amplitude);
    }
    ASSERT_EQ(res.g_pos.size(), batch.g_pos.size());
    for (std::size_t i = 0; i < batch.g_pos.size(); ++i) {
      ASSERT_EQ(res.g_pos[i], batch.g_pos[i]);
      ASSERT_EQ(res.g_neg[i], batch.g_neg[i]);
    }
  }
}

TEST(OnlineCusumTest, OpenExcursionResolvesAtFinish) {
  // A ramp that alarms but never decays: the batch scan dates the end
  // at the series' argmax; the online machine must hold the excursion
  // open across pushes and resolve it identically at finish().
  std::vector<double> x;
  for (int i = 0; i < 40; ++i) x.push_back(0.1 * i);
  const auto batch = analysis::cusum_detect(x);
  ASSERT_FALSE(batch.changes.empty());

  analysis::OnlineCusum online;
  online.begin();
  for (const double v : x) online.push(v);
  // Still growing: nothing confirmable before end-of-stream.
  EXPECT_TRUE(online.confirmed().empty());
  const auto res = online.finish();
  ASSERT_EQ(res.changes.size(), batch.changes.size());
  EXPECT_EQ(res.changes[0].end, batch.changes[0].end);
  EXPECT_EQ(res.changes[0].amplitude, batch.changes[0].amplitude);
}

// ---------------------------------------------------------------------------
// BlockStream
// ---------------------------------------------------------------------------

TEST(BlockStreamTest, EpochAdvanceMatchesBatchOracle) {
  const auto ds = core::dataset("2020w2-ejnw");
  const ProbeWindow w = ds.window();
  const std::vector<std::int64_t> epochs{
      util::kRoundSeconds,          // every round: boundary-aligned
      6 * util::kRoundSeconds - 1,  // off-round
      util::kSecondsPerDay,         // daily
  };
  for (const char* name : {"none", "dropout", "skew", "meltdown"}) {
    const auto plan = fault::scenario(name, w);
    const auto oc = week_config(&plan);
    for (std::size_t b = 0; b < 4; ++b) {
      const auto& block = responsive_block(b);
      const auto want = batch_oracle(block, oc);
      for (const std::int64_t step : epochs) {
        probe::ProbeScratch scratch;
        recon::BlockStream stream;
        stream.begin(block, oc, scratch);
        for (util::SimTime t = w.start; t < w.end; t += step) {
          stream.advance_to(t);
          stream.advance_to(t);  // zero-round epoch: must be a no-op
        }
        recon::DegradedReconStats got;
        stream.finalize_stats(got);
        expect_recon_equal(recon::ReconResult(got.recon, stream.series()),
                           want.recon);
        expect_observers_equal(got.observers, want.observers);
      }
    }
  }
}

// The union-window fork is kept for the repository benchmark's traced
// drive (perfbench/src/batch.cc); the engine classifies split windows
// with a dedicated pass.
TEST(BlockStreamTest, UnionForkMatchesDedicatedClassifyPass) {
  const auto detect_ds = core::dataset("2020m1-ejnw");
  const ProbeWindow dw = detect_ds.window();
  const util::SimTime classify_end = dw.start + 7 * util::kSecondsPerDay;

  recon::BlockObservationConfig detect_oc;
  detect_oc.observers = detect_ds.observers();
  detect_oc.window = dw;
  recon::BlockObservationConfig classify_oc = detect_oc;
  classify_oc.window = ProbeWindow{dw.start, classify_end};

  for (std::size_t b = 0; b < 4; ++b) {
    const auto& block = responsive_block(b);
    const auto want_classify = batch_oracle(block, classify_oc);
    const auto want_detect = batch_oracle(block, detect_oc);

    probe::ProbeScratch scratch;
    recon::BlockStream stream;
    stream.begin(block, detect_oc, scratch, classify_end);
    // Epoch boundary landing exactly on the classification boundary.
    for (util::SimTime t = dw.start; t < classify_end;
         t += util::kSecondsPerDay) {
      stream.advance_to(t);
    }
    stream.advance_to(classify_end);
    recon::DegradedReconStats got_classify;
    stream.finalize_classify_stats(got_classify);
    expect_recon_equal(
        recon::ReconResult(got_classify.recon, stream.classify_series()),
        want_classify.recon);
    expect_observers_equal(got_classify.observers, want_classify.observers);

    // The detection stream continues from the fork untouched.
    recon::DegradedReconStats got_detect;
    stream.finalize_stats(got_detect);
    expect_recon_equal(recon::ReconResult(got_detect.recon, stream.series()),
                       want_detect.recon);
    expect_observers_equal(got_detect.observers, want_detect.observers);
  }
}

// ---------------------------------------------------------------------------
// StreamingFleet
// ---------------------------------------------------------------------------

const sim::World& fleet_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 3;
    return c;
  }());
  return world;
}

TEST(StreamingFleetTest, EpochDriveMatchesBatch) {
  for (const char* name : {"none", "dropout"}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.faults = fault::scenario(name, fc.dataset.window());
    fc.threads = 2;
    const auto batch = core::run_fleet(fleet_world(), fc);
    const auto want = core::fleet_digest(batch);

    core::StreamingFleet fleet(fleet_world(), fc);
    std::size_t delivered = 0;
    for (util::SimTime t = fleet.window_start(); t < fleet.window_end();
         t += util::kSecondsPerDay) {
      delivered += fleet.advance_to(t).observations;
    }
    const auto rest = fleet.advance_to(fleet.window_end());
    delivered += rest.observations;
    const auto streamed = fleet.finalize();
    EXPECT_EQ(core::fleet_digest(streamed), want) << name;
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(streamed.funnel.routed, batch.funnel.routed);
  }
}

TEST(StreamingFleetTest, FusedUnionWindowMatchesTwoPass) {
  // Nested windows: the batch drive observes the classification window,
  // then the detection window for change-sensitive blocks only (two
  // passes); the incremental drive observes every block over the
  // detection window and classifies it with a dedicated pass in the
  // epoch that completes the classification window.  Same digest.
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020q1-ejnw");
  fc.classify_dataset = core::dataset("2020m1-ejnw");
  fc.threads = 2;
  const auto two_pass = core::run_fleet(fleet_world(), fc);

  // The incremental drive crosses the classification boundary mid-run.
  core::StreamingFleet fleet(fleet_world(), fc);
  bool complete_seen = false;
  for (util::SimTime t = fleet.window_start(); t <= fleet.window_end();
       t += 3 * util::kSecondsPerDay) {
    const auto rep = fleet.advance_to(t);
    if (rep.classification_complete && !complete_seen) {
      complete_seen = true;
      EXPECT_EQ(rep.funnel.routed,
                static_cast<std::int64_t>(fleet_world().blocks().size()));
    }
  }
  EXPECT_TRUE(complete_seen);
  const auto fused = fleet.finalize();
  EXPECT_EQ(core::fleet_digest(fused), core::fleet_digest(two_pass));
}

TEST(StreamingFleetTest, FinalizeWithoutAdvanceIsTheBatchDrive) {
  // finalize() on an engine that never advanced runs every block start
  // to finish, and run_to_completion() after advances drains the rest:
  // both equal run_fleet, on one window and on nested windows.
  core::FleetConfig one;
  one.dataset = core::dataset("2020m1-ejnw");
  core::FleetConfig nested;
  nested.dataset = core::dataset("2020q1-ejnw");
  nested.classify_dataset = core::dataset("2020m1-ejnw");
  for (core::FleetConfig* fc : {&one, &nested}) {
    fc->threads = 2;
    const auto want = core::fleet_digest(core::run_fleet(fleet_world(), *fc));
    const std::string name = fc->dataset.abbr;

    core::StreamingFleet fresh(fleet_world(), *fc);
    EXPECT_EQ(core::fleet_digest(fresh.finalize()), want) << name;

    core::StreamingFleet advanced(fleet_world(), *fc);
    for (int day = 1; day <= 30; ++day) {
      advanced.advance_to(advanced.window_start() +
                          day * util::kSecondsPerDay);
    }
    EXPECT_EQ(core::fleet_digest(advanced.run_to_completion()), want) << name;
  }
}

// ---------------------------------------------------------------------------
// Drive pins: the digest on both drives at several batch widths, and
// the incremental drive's epoch surface (delivered observations,
// provisional alarms, the epoch whose report first carries the final
// funnel).
// ---------------------------------------------------------------------------

struct DailyDrive {
  std::string digest;
  std::size_t observations = 0;
  std::size_t alarms = 0;
  std::size_t first_complete = static_cast<std::size_t>(-1);
};

// The incremental drive in daily epochs (the first ends one day into
// the window, the last at the window end), then finalize.
DailyDrive drive_daily(const sim::World& world, const core::FleetConfig& fc) {
  core::StreamingFleet fleet(world, fc);
  DailyDrive run;
  for (util::SimTime t = fleet.window_start() + util::kSecondsPerDay;;
       t += util::kSecondsPerDay) {
    const util::SimTime until = std::min(t, fleet.window_end());
    const auto rep = fleet.advance_to(until);
    run.observations += rep.observations;
    run.alarms += rep.provisional.size();
    if (rep.classification_complete && run.first_complete > rep.epoch_index) {
      run.first_complete = rep.epoch_index;
    }
    if (until == fleet.window_end()) break;
  }
  run.digest = core::digest_hex(core::fleet_digest(fleet.finalize()));
  return run;
}

struct SplitWindowPin {
  const char* plan;
  const char* digest;
  std::size_t observations;
  std::size_t alarms;
};

// Detect over 2020q1, classify over its 4-week prefix 2020m1 (the
// paper's section 3.4 split at fleet_world() scale).  The batch drive
// runs at a one-lane, a ragged and the full width; the incremental
// drive crosses the classification boundary at epoch 27 (28 days), whose
// end is the boundary itself, and classifies every block there with a
// dedicated pass.
void expect_split_window_pin(const SplitWindowPin& pin) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020q1-ejnw");
  fc.classify_dataset = core::dataset("2020m1-ejnw");
  fc.faults = fault::scenario(pin.plan, fc.dataset.window());
  fc.threads = 2;
  for (const int width : {1, 5, 0}) {
    fc.analysis_batch_width = width;
    const auto batch = core::run_fleet(fleet_world(), fc);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(batch)), pin.digest)
        << pin.plan << " batch drive, width " << width;
  }
  for (const int width : {1, 0}) {
    fc.analysis_batch_width = width;
    const DailyDrive run = drive_daily(fleet_world(), fc);
    EXPECT_EQ(run.digest, pin.digest) << pin.plan << " width " << width;
    EXPECT_EQ(run.observations, pin.observations) << pin.plan;
    EXPECT_EQ(run.alarms, pin.alarms) << pin.plan;
    EXPECT_EQ(run.first_complete, 27u) << pin.plan;
  }
}

TEST(DrivePin, NestedWindowsHealthy) {
  expect_split_window_pin({"none", "fd26bf8d348b11ba", 6844517, 145});
}

TEST(DrivePin, NestedWindowsFlapping) {
  expect_split_window_pin({"flapping", "3d5fe31a9d65ee32", 6051584, 132});
}

TEST(DrivePin, SkewForcesSeparatePasses) {
  // Skew faults retime by the window span, so the classification
  // stream is no prefix of the detection stream; the dedicated
  // classification pass retimes over the classification window.
  expect_split_window_pin({"skew", "d2d8aaef2f4c5c00", 6844202, 147});
}

TEST(DrivePin, SameWindowGoldenEpochSurface) {
  // The golden world on one window: the provisional screen classifies
  // mid-stream snapshots, so its alarms are pinned alongside the digest
  // (the figures BENCH_stream.json records).
  static const sim::World golden([] {
    sim::WorldConfig c;
    c.num_blocks = 2000;
    c.seed = 1;
    return c;
  }());
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 2;
  const DailyDrive run = drive_daily(golden, fc);
  EXPECT_EQ(run.digest, "f94c66488def6938");
  EXPECT_EQ(run.observations, 24733478u);
  EXPECT_EQ(run.alarms, 193u);
}

// ---------------------------------------------------------------------------
// Gapped reconstruction pins: every observer hard down for day 9 of a
// four-week window, so every probed block's reconstruction carries a
// coverage gap.  Pins the mid-run row statistics (before and after the
// outage), the final degradation rows and digest, and the one-block
// reconstruction statistics.
// ---------------------------------------------------------------------------

const sim::World& gapped_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 120;
    c.seed = 7;
    return c;
  }());
  return world;
}

fault::FaultPlan day_nine_outage(probe::ProbeWindow w) {
  fault::FaultPlan plan;
  plan.outages.push_back(fault::OutageSpec{
      fault::kAllObservers, fault::OutageKind::kHardDown,
      w.start + 9 * util::kSecondsPerDay, w.start + 10 * util::kSecondsPerDay});
  return plan;
}

std::string row_stats_digest(const core::StreamingFleet& fleet) {
  std::vector<core::StreamingFleet::BlockSnapshotRow> rows;
  fleet.extract_rows(rows);
  core::Fnv1a h;
  for (const auto& row : rows) {
    h.u64(row.emitted);
    h.f64(row.evidence_fraction);
    h.f64(row.max_gap_hours);
  }
  return core::digest_hex(h.h);
}

TEST(GappedReconPin, MidRunRowsAndFinalDegradation) {
  for (const int threads : {1, 2}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    const ProbeWindow w = fc.dataset.window();
    fc.faults = day_nine_outage(w);
    fc.threads = threads;
    const auto want = core::fleet_digest(core::run_fleet(gapped_world(), fc));

    core::StreamingFleet fleet(gapped_world(), fc);
    fleet.advance_to(w.start + 9 * util::kSecondsPerDay +
                     12 * util::kSecondsPerHour);
    EXPECT_EQ(row_stats_digest(fleet), "acc99f40dd642adb") << threads;
    fleet.advance_to(w.start + 11 * util::kSecondsPerDay);
    EXPECT_EQ(row_stats_digest(fleet), "fe6254f750dcfd32") << threads;

    const auto result = fleet.finalize();
    core::Fnv1a h;
    for (const auto& d : result.degradation.blocks) {
      h.f64(d.evidence_fraction);
      h.f64(d.max_gap_hours);
      h.boolean(d.low_confidence);
      h.i64(d.live_observers);
      h.i64(d.partial_observers);
    }
    EXPECT_EQ(core::digest_hex(h.h), "615c935bf39f1bf9") << threads;
    EXPECT_EQ(core::digest_hex(core::fleet_digest(result)),
              "dba50a660757abad")
        << threads;
    EXPECT_EQ(core::fleet_digest(result), want) << threads;
  }
}

TEST(GappedReconPin, ObserveAndReconstructStatistics) {
  const auto ds = core::dataset("2020m1-ejnw");
  const core::FleetConfig fc;
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.loss = probe::LossModel(fc.loss);
  oc.window = ds.window();
  const auto plan = day_nine_outage(oc.window);
  oc.faults = &plan;

  core::Fnv1a h;
  std::size_t probed = 0;
  for (const auto& block : gapped_world().blocks()) {
    if (block.eb_count == 0) continue;
    ++probed;
    const auto r = recon::observe_and_reconstruct(block, oc);
    EXPECT_FALSE(r.gaps.empty()) << block.id.to_string();
    h.u64(r.counts.size());
    for (const double v : r.counts.span()) h.f64(v);
    h.boolean(r.responsive);
    h.f64(r.mean_reply_rate);
    h.u64(r.observations);
    h.i64(r.observed_targets);
    h.f64(r.max_active);
    h.f64(r.evidence_fraction);
    h.f64(r.max_gap_seconds);
    h.u64(r.gaps.size());
    for (const auto& g : r.gaps) {
      h.i64(g.start);
      h.i64(g.end);
    }
    h.u64(r.fbs_spans_seconds.size());
    for (const double s : r.fbs_spans_seconds) h.f64(s);
  }
  EXPECT_EQ(probed, 69u);
  EXPECT_EQ(core::digest_hex(h.h), "308ebe829baa65ed");
}

}  // namespace
}  // namespace diurnal
