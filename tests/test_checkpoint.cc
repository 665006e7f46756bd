// Checkpoint/restore property tests: externalized state must be
// invisible in the output.
//
// The contract under test (util/state_io.h, core/checkpoint.h,
// DESIGN.md section 11): a run that snapshots its state and a fresh
// process that restores it finalize bitwise-identical to an
// uninterrupted run — same golden fleet digest — at every tested epoch
// boundary and shard boundary, across thread counts, with and without
// fault plans; and every corrupt, truncated, or foreign state image is
// rejected with a typed StateError (then recomputed), never silently
// misread.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <ostream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cusum.h"
#include "core/aggregate.h"
#include "core/checkpoint.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "probe/prober.h"
#include "recon/reconstruct.h"
#include "recon/stream.h"
#include "sim/world.h"
#include "sim/world_slice.h"
#include "util/date.h"
#include "util/mem.h"
#include "util/state_io.h"

namespace diurnal {
namespace {

using util::StateError;
using util::StateErrorKind;
using util::StateReader;
using util::StateWriter;

// Shared with tests/test_fleet_digest.cc and the bench-smoke CI gate.
constexpr char kGoldenDigest[] = "f94c66488def6938";

StateErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StateError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a StateError";
  return StateErrorKind::kIo;
}

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("diurnal_ckpt_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// An image's length and CRC-32.  The pins below hold every serialized
/// layout byte-for-byte: a change that moves one of them is a format
/// change and must bump util::kStateFormatVersion.
struct ImagePin {
  std::size_t bytes = 0;
  std::uint32_t crc = 0;
  bool operator==(const ImagePin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ImagePin& p) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", p.crc);
  return os << p.bytes << " bytes, crc32 " << crc;
}

ImagePin pin_of(std::span<const std::uint8_t> image) {
  return {image.size(), util::crc32(image)};
}

// ---------------------------------------------------------------------------
// state_io: framing, packing, corruption
// ---------------------------------------------------------------------------

TEST(StateIo, PrimitivesRoundTrip) {
  StateWriter w;
  w.begin_section(util::state_tag("TST1"));
  w.u8(0x7f);
  w.u32(0);
  w.u32(0xdeadbeefu);
  w.u64(0xffffffffffffffffULL);
  w.i64(-1);
  w.i64(1234567890123LL);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("checkpoint");
  w.str("");
  w.end_section();
  w.begin_section(util::state_tag("TST2"));
  w.u64(42);
  w.end_section();

  StateReader r(w.bytes());
  EXPECT_EQ(r.version(), util::kStateFormatVersion);
  r.begin_section(util::state_tag("TST1"));
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0xffffffffffffffffULL);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), 1234567890123LL);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_EQ(r.str(), "");
  r.end_section();
  r.begin_section(util::state_tag("TST2"));
  EXPECT_EQ(r.u64(), 42u);
  r.end_section();
  // The image ends here: there is no third section to open.
  EXPECT_EQ(kind_of([&] { r.begin_section(util::state_tag("TST3")); }),
            StateErrorKind::kTruncated);
}

TEST(StateIo, F64SpanRoundTripsBitwiseOnBothPaths) {
  // Integral counts take the varint path, anything else the raw path;
  // both must round-trip the exact bit patterns.
  const std::vector<double> integral{0, 1, 254, 1e12, 4503599627370495.0};
  const std::vector<double> awkward{0.5, -0.0, -3.25, 1e300,
                                    std::nan("1"), 2.0};
  for (const auto& values : {integral, awkward}) {
    StateWriter w;
    w.begin_section(util::state_tag("SPAN"));
    w.f64_span(values);
    w.end_section();
    StateReader r(w.bytes());
    r.begin_section(util::state_tag("SPAN"));
    std::vector<double> got;
    r.f64_span(got);
    r.end_section();
    ASSERT_EQ(got.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, &values[i], 8);
      std::memcpy(&b, &got[i], 8);
      EXPECT_EQ(a, b) << "sample " << i;
    }
  }
}

TEST(StateIo, Crc32KnownAnswers) {
  const auto* digits = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(util::crc32({digits, 9}), 0xCBF43926u);
  EXPECT_EQ(util::crc32({}), 0u);

  // One bit at a time, the definition of the reflected IEEE CRC-32:
  // every length and start alignment must agree with it, so a sliced
  // implementation's tail and misaligned heads are covered.
  const auto reference = [](std::span<const std::uint8_t> bytes) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
      c ^= b;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::mt19937_64 rng(0xC5C);
  std::vector<std::uint8_t> buf(8 + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + start, len);
      EXPECT_EQ(util::crc32(s), reference(s))
          << "start " << start << " length " << len;
    }
  }
}

TEST(StateIo, EveryCorruptionIsATypedError) {
  StateWriter w;
  w.begin_section(util::state_tag("BODY"));
  for (int i = 0; i < 64; ++i) w.u64(static_cast<std::uint64_t>(i) * 977);
  w.end_section();
  const std::vector<std::uint8_t> clean = w.bytes();
  const auto read_all = [](const std::vector<std::uint8_t>& image) {
    StateReader r(image);
    r.begin_section(util::state_tag("BODY"));
    for (int i = 0; i < 64; ++i) (void)r.u64();
    r.end_section();
  };
  read_all(clean);  // sanity: the clean image parses

  auto flipped = clean;
  flipped[flipped.size() - 3] ^= 0x40;  // payload byte
  EXPECT_EQ(kind_of([&] { read_all(flipped); }), StateErrorKind::kBadCrc);

  auto truncated = clean;
  truncated.resize(truncated.size() - 5);
  EXPECT_EQ(kind_of([&] { read_all(truncated); }),
            StateErrorKind::kTruncated);

  auto bad_magic = clean;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(kind_of([&] { read_all(bad_magic); }), StateErrorKind::kBadMagic);

  auto bad_endian = clean;  // sentinel bytes live right after the magic
  std::swap(bad_endian[8], bad_endian[11]);
  std::swap(bad_endian[9], bad_endian[10]);
  EXPECT_EQ(kind_of([&] { read_all(bad_endian); }),
            StateErrorKind::kBadEndian);

  auto bad_version = clean;  // version field follows the sentinel
  bad_version[12] ^= 0x08;
  EXPECT_EQ(kind_of([&] { read_all(bad_version); }),
            StateErrorKind::kBadVersion);

  EXPECT_EQ(kind_of([&] {
              StateReader r(clean);
              r.begin_section(util::state_tag("ELSE"));
            }),
            StateErrorKind::kBadSection);

  EXPECT_EQ(kind_of([&] {
              StateReader r(clean);
              r.begin_section(util::state_tag("BODY"));
              (void)r.u64();
              r.end_section();  // payload not fully consumed
            }),
            StateErrorKind::kBadSection);

  EXPECT_EQ(kind_of([&] { StateReader r(std::vector<std::uint8_t>{}); }),
            StateErrorKind::kTruncated);
}

TEST(StateIo, UnknownHeaderFlagBitsAreRejected) {
  // A future writer setting flag bits this reader does not understand
  // must be refused up front, not half-parsed.  Bit 0 is the varint
  // packing flag every writer sets; the header flags field starts at
  // offset 16.
  StateWriter w;
  w.begin_section(util::state_tag("FLAG"));
  w.u64(1);
  w.end_section();
  auto image = w.bytes();
  image[16] |= 0x02;
  EXPECT_EQ(kind_of([&] { StateReader r(image); }),
            StateErrorKind::kBadValue);
}

TEST(StateIo, HeaderWithoutVarintFlagIsRejected) {
  // Bit 0 (LEB128 integers) is set by every writer; an image with it
  // clear asks for fixed-width integers, which no reader decodes.
  StateWriter w;
  w.begin_section(util::state_tag("FLAG"));
  w.u64(1);
  w.end_section();
  auto image = w.bytes();
  ASSERT_EQ(image[16], 0x01);
  StateReader clean(image);  // sanity: the written header parses
  image[16] = 0x00;
  EXPECT_EQ(kind_of([&] { StateReader r(image); }),
            StateErrorKind::kBadValue);
}

TEST(StateIo, BitFlipFuzzEveryMutationIsATypedError) {
  // Randomized single-bit-flip fuzz over a real engine image: every
  // byte of a state image is covered by either header validation or a
  // section CRC, so whatever bit flips, restoring a fresh engine from
  // the image must throw a typed StateError — never crash, hang, or
  // accept silently.
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 40;
    c.seed = 11;
    return c;
  }());
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020w1-ejnw");
  fc.threads = 1;
  core::StreamingFleet engine(world, fc);
  engine.advance_to(engine.window_start() + 4 * util::kSecondsPerDay);
  StateWriter w;
  engine.save(w);
  const std::vector<std::uint8_t> clean = w.bytes();
  ASSERT_GT(clean.size(), 64u);

  const auto restore = [&](const std::vector<std::uint8_t>& image) {
    core::StreamingFleet fresh(world, fc);
    StateReader r(image);
    fresh.restore(r);
  };
  restore(clean);  // sanity: the clean image restores

  std::mt19937_64 rng(0xD1U);
  std::uniform_int_distribution<std::size_t> pos(0, clean.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    auto mutated = clean;
    mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    try {
      restore(mutated);
    } catch (const StateError&) {
      ++rejected;
      continue;
    }
    // Any other exception type aborts the test run by itself.
    ADD_FAILURE() << "bit flip at trial " << trial
                  << " was silently accepted";
  }
  EXPECT_EQ(rejected, 1000u);
}

TEST(StateIo, TruncationFuzzEveryPrefixIsATypedError) {
  // Every strict prefix of a valid image must surface as kTruncated,
  // kBadCrc or kBadSection — never a crash and never a clean decode.
  StateWriter w;
  w.begin_section(util::state_tag("TRNC"));
  for (int i = 0; i < 256; ++i) w.u64(static_cast<std::uint64_t>(i) * 31);
  w.end_section();
  w.begin_section(util::state_tag("TAIL"));
  w.str("tail section");
  w.end_section();
  const std::vector<std::uint8_t> clean = w.bytes();
  const auto decode = [](const std::vector<std::uint8_t>& image) {
    StateReader r(image);
    r.begin_section(util::state_tag("TRNC"));
    for (int i = 0; i < 256; ++i) (void)r.u64();
    r.end_section();
    r.begin_section(util::state_tag("TAIL"));
    (void)r.str();
    r.end_section();
  };
  decode(clean);  // sanity: the whole image decodes

  std::mt19937_64 rng(0x7CU);
  std::uniform_int_distribution<std::size_t> cut(0, clean.size() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = clean;
    mutated.resize(cut(rng));
    // kind_of() also fails the test when the prefix decodes cleanly.
    const StateErrorKind kind = kind_of([&] { decode(mutated); });
    EXPECT_TRUE(kind == StateErrorKind::kTruncated ||
                kind == StateErrorKind::kBadCrc ||
                kind == StateErrorKind::kBadSection)
        << "cut " << mutated.size() << " gave kind " << util::to_string(kind);
  }
}

TEST(StateIo, ConcurrentWritersToOneDirectoryNeverTearAFile) {
  // Regression for the fixed staging-name collision: concurrent
  // write_state_file calls into one directory (distinct paths, shared
  // prefix) must each land a complete, parseable image.
  const auto dir = temp_dir("concurrent_write");
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        StateWriter w;
        w.begin_section(util::state_tag("CONC"));
        w.u64(static_cast<std::uint64_t>(t));
        w.u64(static_cast<std::uint64_t>(round));
        w.end_section();
        util::write_state_file(
            (dir / ("writer-" + std::to_string(t) + ".ckpt")).string(),
            w.bytes());
      }
    });
  }
  for (auto& t : writers) t.join();
  for (int t = 0; t < kWriters; ++t) {
    const auto image = util::read_state_file(
        (dir / ("writer-" + std::to_string(t) + ".ckpt")).string());
    StateReader r(image);
    r.begin_section(util::state_tag("CONC"));
    EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(t));
    EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(kRounds - 1));
    r.end_section();
  }
  // No staging leftovers either.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".ckpt")
        << "staging file leaked: " << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(StateIo, AtomicFileWriteRoundTripsAndMissingFileIsIo) {
  const auto dir = temp_dir("stateio");
  const std::string path = (dir / "image.ckpt").string();
  StateWriter w;
  w.begin_section(util::state_tag("FILE"));
  w.str("payload");
  w.end_section();
  util::write_state_file(path, w.bytes());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed away
  const auto image = util::read_state_file(path);
  StateReader r(image);
  r.begin_section(util::state_tag("FILE"));
  EXPECT_EQ(r.str(), "payload");
  r.end_section();
  EXPECT_EQ(kind_of([&] {
              (void)util::read_state_file((dir / "absent.ckpt").string());
            }),
            StateErrorKind::kIo);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Layer round-trips: CUSUM, aggregator
// ---------------------------------------------------------------------------

TEST(CusumCheckpoint, MidStreamRestoreMatchesUninterrupted) {
  // A drifting series with one planted level shift; cut the stream at
  // several points, including inside the post-alarm excursion scan.
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) {
    const double base = i < 200 ? 0.0 : -6.0;
    x.push_back(base + 0.8 * std::sin(i * 0.7) + 0.3 * std::cos(i * 1.3));
  }
  analysis::OnlineCusum whole;
  whole.begin({1.0, 0.001});
  for (const double v : x) whole.push(v);
  const auto want = whole.finish();

  std::vector<std::uint8_t> images;  // every saved image, concatenated
  for (const std::size_t cut : {std::size_t{1}, std::size_t{150},
                                std::size_t{201}, std::size_t{399}}) {
    analysis::OnlineCusum first;
    first.begin({1.0, 0.001});
    for (std::size_t i = 0; i < cut; ++i) first.push(x[i]);
    StateWriter w;
    w.begin_section(util::state_tag("CSUM"));
    first.save(w);
    w.end_section();
    images.insert(images.end(), w.bytes().begin(), w.bytes().end());

    analysis::OnlineCusum second;  // restore needs no begin()
    StateReader r(w.bytes());
    r.begin_section(util::state_tag("CSUM"));
    second.restore(r);
    r.end_section();
    for (std::size_t i = cut; i < x.size(); ++i) second.push(x[i]);
    const auto got = second.finish();

    ASSERT_EQ(got.changes.size(), want.changes.size()) << "cut " << cut;
    for (std::size_t i = 0; i < want.changes.size(); ++i) {
      EXPECT_EQ(got.changes[i].start, want.changes[i].start);
      EXPECT_EQ(got.changes[i].alarm, want.changes[i].alarm);
      EXPECT_EQ(got.changes[i].end, want.changes[i].end);
      EXPECT_EQ(got.changes[i].direction, want.changes[i].direction);
      EXPECT_EQ(got.changes[i].amplitude, want.changes[i].amplitude);
    }
    EXPECT_EQ(got.g_pos, want.g_pos) << "cut " << cut;
    EXPECT_EQ(got.g_neg, want.g_neg) << "cut " << cut;
  }
  EXPECT_EQ(pin_of(images), (ImagePin{19985, 0x9ea8c3a6}));
}

TEST(AggregatorCheckpoint, RestoredAggregatorMergesLikeTheOriginal) {
  const util::SimTime day = util::kSecondsPerDay;
  core::ChangeAggregator agg(0, 10 * day);
  std::vector<core::DetectedChange> changes(2);
  changes[0].alarm = 3 * day + 100;
  changes[0].direction = analysis::ChangeDirection::kDown;
  changes[1].alarm = 7 * day;
  changes[1].direction = analysis::ChangeDirection::kUp;
  agg.add_block(geo::GridCell{10, -20}, geo::Continent::kEurope, changes);
  agg.add_block(geo::GridCell{10, -20}, geo::Continent::kEurope, {});
  agg.add_block(geo::GridCell{-3, 44}, geo::Continent::kAsia,
                {changes.begin(), changes.begin() + 1});

  StateWriter w;
  w.begin_section(util::state_tag("AGGR"));
  agg.save(w);
  w.end_section();
  EXPECT_EQ(pin_of(w.bytes()), (ImagePin{219, 0xaf8a2b76}));
  core::ChangeAggregator got;  // default-constructed target
  StateReader r(w.bytes());
  r.begin_section(util::state_tag("AGGR"));
  got.restore(r);
  r.end_section();

  ASSERT_EQ(got.days(), agg.days());
  EXPECT_EQ(got.start(), agg.start());
  ASSERT_EQ(got.by_cell().size(), agg.by_cell().size());
  for (const auto& [cell, series] : agg.by_cell()) {
    const auto it = got.by_cell().find(cell);
    ASSERT_NE(it, got.by_cell().end());
    EXPECT_EQ(it->second.change_sensitive_blocks,
              series.change_sensitive_blocks);
    EXPECT_EQ(it->second.down, series.down);
    EXPECT_EQ(it->second.up, series.up);
  }
  // A restored aggregator must behave as a merge source exactly like
  // the original (the resume path folds restored shard aggregators).
  core::ChangeAggregator into_a(0, 10 * day);
  core::ChangeAggregator into_b(0, 10 * day);
  into_a.merge_from(agg);
  into_b.merge_from(got);
  EXPECT_EQ(into_a.continent(geo::Continent::kEurope).down,
            into_b.continent(geo::Continent::kEurope).down);
  EXPECT_EQ(into_a.by_cell().size(), into_b.by_cell().size());
}

// ---------------------------------------------------------------------------
// recon: BlockStream mid-window snapshot
// ---------------------------------------------------------------------------

const sim::World& recon_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 60;
    c.seed = 7;
    return c;
  }());
  return world;
}

const sim::BlockProfile& responsive_block(std::size_t skip) {
  for (const auto& b : recon_world().blocks()) {
    if (b.eb_count > 0 && skip-- == 0) return b;
  }
  throw std::runtime_error("no responsive block");
}

TEST(BlockStreamCheckpoint, MidWindowRestoreFinalizesIdentically) {
  const auto ds = core::dataset("2020w2-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();
  const auto span = oc.window.end - oc.window.start;
  std::vector<std::uint8_t> images;  // every saved image, concatenated
  for (const char* scenario : {"none", "dropout", "meltdown"}) {
    const auto plan = fault::scenario(scenario, oc.window);
    oc.faults = &plan;
    for (std::size_t b = 0; b < 3; ++b) {
      const auto& block = responsive_block(b);
      probe::ProbeScratch scratch;

      recon::BlockStream whole;
      whole.begin(block, oc, scratch);
      whole.advance_to(oc.window.end);
      recon::DegradedReconStats want;
      whole.finalize_stats(want);

      for (const int eighth : {1, 4, 7}) {
        const util::SimTime cut = oc.window.start + span * eighth / 8;
        recon::BlockStream first;
        first.begin(block, oc, scratch);
        first.advance_to(cut);
        StateWriter w;
        w.begin_section(util::state_tag("STRM"));
        first.save(w);
        w.end_section();
        images.insert(images.end(), w.bytes().begin(), w.bytes().end());

        recon::BlockStream second;
        second.begin(block, oc, scratch);  // identical args, then restore
        StateReader r(w.bytes());
        r.begin_section(util::state_tag("STRM"));
        second.restore(r);
        r.end_section();
        second.advance_to(oc.window.end);
        recon::DegradedReconStats got;
        second.finalize_stats(got);

        ASSERT_EQ(got.recon.len, want.recon.len);
        for (std::size_t i = 0; i < want.recon.len; ++i) {
          ASSERT_EQ(second.series()[i], whole.series()[i])
              << scenario << " block " << b << " cut " << eighth
              << "/8 sample " << i;
        }
        EXPECT_EQ(got.recon.evidence_fraction, want.recon.evidence_fraction);
        EXPECT_EQ(got.recon.max_gap_seconds, want.recon.max_gap_seconds);
        EXPECT_EQ(got.recon.observations, want.recon.observations);
        EXPECT_EQ(got.recon.max_active, want.recon.max_active);
        ASSERT_EQ(got.observers.size(), want.observers.size());
        for (std::size_t i = 0; i < want.observers.size(); ++i) {
          EXPECT_EQ(got.observers[i].observations,
                    want.observers[i].observations);
          EXPECT_EQ(got.observers[i].faults.dropped,
                    want.observers[i].faults.dropped);
        }
      }
    }
  }
  EXPECT_EQ(pin_of(images), (ImagePin{156374, 0xf6887d05}));
}

// ---------------------------------------------------------------------------
// core: StreamingFleet epoch-boundary snapshots (the golden digest gate)
// ---------------------------------------------------------------------------

const sim::World& golden_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 2000;
    c.seed = 1;
    return c;
  }());
  return world;
}

core::FleetConfig golden_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

/// Advances to `cut`, snapshots, restores into a fresh engine (possibly
/// with a different thread count), finishes the window in daily epochs,
/// and returns the finalized digest.  `image`, when given, receives the
/// snapshot's pin.
std::string cut_and_resume_digest(const sim::World& world,
                                  const core::FleetConfig& save_cfg,
                                  const core::FleetConfig& resume_cfg,
                                  double cut_fraction,
                                  ImagePin* image = nullptr) {
  core::StreamingFleet first(world, save_cfg);
  const auto span = first.window_end() - first.window_start();
  const util::SimTime cut =
      first.window_start() +
      static_cast<util::SimTime>(span * cut_fraction);
  // Reach the cut in a couple of epochs so the snapshot carries real
  // provisional-detector state, not just a first-epoch skeleton.
  first.advance_to(first.window_start() + span / 10);
  first.advance_to(cut);
  StateWriter w;
  first.save(w);
  if (image != nullptr) *image = pin_of(w.bytes());

  core::StreamingFleet second(world, resume_cfg);
  StateReader r(w.bytes());
  second.restore(r);
  EXPECT_EQ(second.clock(), cut);
  for (util::SimTime t = second.clock() + util::kSecondsPerDay;;
       t += util::kSecondsPerDay) {
    const auto bounded = std::min(t, second.window_end());
    second.advance_to(bounded);
    if (bounded == second.window_end()) break;
  }
  return core::digest_hex(core::fleet_digest(second.finalize()));
}

TEST(FleetCheckpoint, GoldenDigestSurvivesEveryCutAndThreadHop) {
  // Cut points early (nothing screened), mid-window (watch + provisional
  // CUSUM state live), and late (trailing STL windows stretched), saved
  // and restored across thread counts both ways.
  // Each cut's image is pinned too: a cell's state depends only on its
  // block, so the bytes are the same at every thread count.
  const auto check = [](double cut, ImagePin want) {
    ImagePin image;
    EXPECT_EQ(cut_and_resume_digest(golden_world(), golden_config(1),
                                    golden_config(8), cut, &image),
              kGoldenDigest)
        << "cut " << cut << " save@1 resume@8";
    EXPECT_EQ(image, want) << "cut " << cut << " save@1";
    EXPECT_EQ(cut_and_resume_digest(golden_world(), golden_config(8),
                                    golden_config(1), cut, &image),
              kGoldenDigest)
        << "cut " << cut << " save@8 resume@1";
    EXPECT_EQ(image, want) << "cut " << cut << " save@8";
  };
  check(0.25, {4629606, 0x79a57f2e});
  check(0.55, {6230260, 0x8f5374d6});
  check(0.9, {7857782, 0xb39a1a37});
}

TEST(FleetCheckpoint, HourlyCadenceImageIsPinned) {
  // Hourly epochs, as a live server publishes them, reach mid-stream
  // states (partial rounds, provisional CUSUM trajectories) that the
  // daily-cadence pins above do not; these pins hold the encoder's
  // output there byte-for-byte.
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 120;
    c.seed = 7;
    return c;
  }());
  for (const int threads : {1, 2}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.threads = threads;
    core::StreamingFleet engine(world, fc);
    const auto image_after = [&] {
      StateWriter w;
      engine.save(w);
      return pin_of(w.bytes());
    };
    for (int hour = 1; hour <= 600; ++hour) {
      engine.advance_to(engine.window_start() + hour * 3600);
      if (hour == 240) {
        EXPECT_EQ(image_after(), (ImagePin{666550, 0xf1a803d8}))
            << "threads " << threads;
      }
    }
    EXPECT_EQ(image_after(), (ImagePin{914288, 0x9a8d58e1}))
        << "threads " << threads;
  }
}

TEST(FleetCheckpoint, SnapshotBeforeFirstAdvanceIsAValidCheckpoint) {
  const auto fc = golden_config(4);  // engines borrow their config
  core::StreamingFleet first(golden_world(), fc);
  StateWriter w;
  first.save(w);  // no cells yet
  core::StreamingFleet second(golden_world(), fc);
  StateReader r(w.bytes());
  second.restore(r);
  EXPECT_EQ(second.clock(), second.window_start());
  EXPECT_EQ(core::digest_hex(core::fleet_digest(second.run_to_completion())),
            kGoldenDigest);
}

TEST(FleetCheckpoint, FaultPlanRunRestoresBitIdentically) {
  auto fc = golden_config(2);
  fc.faults = fault::scenario("dropout", fc.dataset.window());
  const auto want = core::digest_hex(
      core::fleet_digest(core::run_fleet(golden_world(), fc)));
  auto resume_fc = fc;
  resume_fc.threads = 8;
  EXPECT_EQ(cut_and_resume_digest(golden_world(), fc, resume_fc, 0.5), want);
}

TEST(FleetCheckpoint, SplitWindowModesRestoreAroundTheClassifyBoundary) {
  // kUnion (classification forked from the detection pass) and, under
  // skew faults, kSeparate (dedicated classification pass): cut once
  // before the classification boundary (forked recon / verdict pending
  // in the snapshot) and once after (mid-run verdicts in the snapshot).
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 3;
    return c;
  }());
  // `before` and `after` pin the images at the two cuts.
  const auto check = [](const char* plan, ImagePin before, ImagePin after) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.classify_dataset = core::dataset("2020w1-ejnw");  // 1-week prefix
    fc.faults = fault::scenario(plan, fc.dataset.window());
    fc.threads = 2;
    const auto want =
        core::digest_hex(core::fleet_digest(core::run_fleet(world, fc)));
    for (const double cut : {0.15, 0.6}) {  // boundary sits at 0.25
      ImagePin image;
      EXPECT_EQ(cut_and_resume_digest(world, fc, fc, cut, &image), want)
          << plan << " cut " << cut;
      EXPECT_EQ(image, cut < 0.25 ? before : after) << plan << " cut " << cut;
    }
  };
  check("none", {1069568, 0x5f767909}, {363859, 0xee47dbaa});
  check("skew", {870774, 0xe49c7366}, {375942, 0xbd7be6cf});
}

TEST(FleetCheckpoint, ForeignSnapshotIsRejected) {
  const auto fc = golden_config(2);  // engines borrow their config
  core::StreamingFleet engine(golden_world(), fc);
  engine.advance_to(engine.window_start() + 3 * util::kSecondsPerDay);
  StateWriter w;
  engine.save(w);

  // Different dataset: window mismatch.
  auto other = golden_config(2);
  other.dataset = core::dataset("2020w2-ejnw");
  core::StreamingFleet wrong_window(golden_world(), other);
  EXPECT_EQ(kind_of([&] {
              StateReader r(w.bytes());
              wrong_window.restore(r);
            }),
            StateErrorKind::kBadValue);

  // Same config, different world size: cell-count mismatch.
  static const sim::World small([] {
    sim::WorldConfig c;
    c.num_blocks = 100;
    c.seed = 1;
    return c;
  }());
  core::StreamingFleet wrong_world(small, fc);
  EXPECT_EQ(kind_of([&] {
              StateReader r(w.bytes());
              wrong_world.restore(r);
            }),
            StateErrorKind::kBadValue);
}

TEST(CraftedImage, CrcValidMutationsAreRejectedOrRunClean) {
  // Random payload mutations with every section CRC recomputed, so only
  // the decoders stand between the image and the engine: each restore
  // must throw StateError or leave an engine that runs to finalize.
  // The sanitizer and Debug legs make an out-of-range access fatal.
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 60;
    c.seed = 5;
    return c;
  }());
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020w2-ejnw");
  fc.threads = 1;
  core::StreamingFleet first(world, fc);
  first.advance_to(first.window_start() + 5 * util::kSecondsPerDay);
  StateWriter w;
  first.save(w);
  const std::vector<std::uint8_t> clean = w.take();

  struct Payload {
    std::size_t at = 0;
    std::size_t len = 0;
  };
  // The image: a 20-byte header, then per section tag (4), length (8),
  // CRC (4) and payload.
  std::vector<Payload> payloads;
  for (std::size_t pos = 20; pos < clean.size();) {
    std::uint64_t len = 0;
    std::memcpy(&len, clean.data() + pos + 4, 8);
    payloads.push_back({pos + 16, static_cast<std::size_t>(len)});
    pos += 16 + static_cast<std::size_t>(len);
  }
  std::mt19937_64 rng(7);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> image = clean;
    for (int edit = 0; edit < 1 + static_cast<int>(rng() % 3); ++edit) {
      const Payload& p = payloads[rng() % payloads.size()];
      if (p.len == 0) continue;
      image[p.at + rng() % p.len] = static_cast<std::uint8_t>(rng());
    }
    for (const Payload& p : payloads) {
      const std::uint32_t crc = util::crc32({image.data() + p.at, p.len});
      std::memcpy(image.data() + p.at - 4, &crc, 4);
    }
    core::StreamingFleet second(world, fc);
    try {
      StateReader r(image);
      second.restore(r);
    } catch (const StateError&) {
      continue;
    }
    ++accepted;
    second.advance_to(second.window_end());
    (void)second.finalize();
  }
  EXPECT_GT(accepted, 0u);  // some mutations land on free values
}

TEST(FleetCheckpoint, FailedRestoreLeavesTheEngineAsConstructed) {
  // Same block count, windows and mode, different world: the snapshot
  // passes FLTM and fails inside CELL, once a restored stream meets a
  // block of another size.  The tools then start fresh with the same
  // engine, which must run as if restore had never been called.
  const auto world_of = [](std::uint64_t seed) {
    sim::WorldConfig c;
    c.num_blocks = 300;
    c.seed = seed;
    return sim::World(c);
  };
  const sim::World a = world_of(11);
  const sim::World b = world_of(12);
  const auto fc = golden_config(2);
  core::StreamingFleet first(a, fc);
  first.advance_to(first.window_start() + 9 * util::kSecondsPerDay);
  StateWriter w;
  first.save(w);

  core::StreamingFleet second(b, fc);
  EXPECT_EQ(kind_of([&] {
              StateReader r(w.bytes());
              second.restore(r);
            }),
            StateErrorKind::kBadValue);
  EXPECT_EQ(second.clock(), second.window_start());
  EXPECT_EQ(core::digest_hex(core::fleet_digest(second.run_to_completion())),
            core::digest_hex(core::fleet_digest(core::run_fleet(b, fc))));
}

// ---------------------------------------------------------------------------
// RunCheckpoint: the one file of a streaming run
// ---------------------------------------------------------------------------

sim::WorldConfig run_world_config() {
  sim::WorldConfig wc;
  wc.num_blocks = 60;
  wc.seed = 5;
  return wc;
}

core::FleetConfig run_fleet_config() {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020w2-ejnw");
  fc.threads = 1;
  return fc;
}

TEST(RunCheckpoint, FileIsPinnedAndResumesToTheUninterruptedDigest) {
  // The bytes are the run fingerprint's CLIM section, then the engine
  // image: the layout both streaming tools wrote before one type owned
  // it, so an older stream.ckpt or serve.ckpt still resumes.
  const auto wc = run_world_config();
  const auto fc = run_fleet_config();
  const sim::World world(wc);
  const auto dir = temp_dir("run_file");
  const core::RunCheckpoint ckpt(dir.string(), "stream.ckpt", wc, fc);
  EXPECT_EQ(ckpt.path(), (dir / "stream.ckpt").string());

  core::StreamingFleet first(world, fc);
  first.advance_to(first.window_start() + 3 * util::kSecondsPerDay);
  ckpt.save(first);
  EXPECT_EQ(pin_of(util::read_state_file(ckpt.path())),
            (ImagePin{256614, 0x6ee5d92a}));

  core::StreamingFleet second(world, fc);
  EXPECT_EQ(ckpt.resume(second), std::nullopt);
  EXPECT_EQ(second.clock(), first.clock());
  second.advance_to(second.window_end());
  EXPECT_EQ(core::fleet_digest(second.finalize()),
            core::fleet_digest(core::run_fleet(world, fc)));

  ckpt.discard();
  EXPECT_FALSE(std::filesystem::exists(ckpt.path()));
  std::filesystem::remove_all(dir);
}

TEST(RunCheckpoint, MissingTruncatedOrForeignFileStartsFreshWithAReason) {
  const auto wc = run_world_config();
  const auto fc = run_fleet_config();
  const sim::World world(wc);
  const auto dir = temp_dir("run_file_fresh");
  const core::RunCheckpoint ckpt(dir.string(), "stream.ckpt", wc, fc);
  // Each failed resume leaves the engine as constructed.
  const auto starts_fresh = [&](const char* why) {
    core::StreamingFleet engine(world, fc);
    const auto reason = ckpt.resume(engine);
    EXPECT_NE(reason, std::nullopt);
    if (reason) {
      EXPECT_NE(reason->find(why), std::string::npos) << *reason;
    }
    EXPECT_EQ(engine.clock(), engine.window_start());
  };
  starts_fresh("cannot open for read");

  core::StreamingFleet first(world, fc);
  first.advance_to(first.window_start() + 3 * util::kSecondsPerDay);
  ckpt.save(first);
  auto image = util::read_state_file(ckpt.path());
  image.resize(image.size() / 2);
  util::write_state_file(ckpt.path(), image);
  starts_fresh("exceeds the image");

  // Another world's run file at the same path.
  auto other = wc;
  other.seed = 6;
  const sim::World other_world(other);
  core::StreamingFleet foreign(other_world, fc);
  foreign.advance_to(foreign.window_start() + 3 * util::kSecondsPerDay);
  core::RunCheckpoint(dir.string(), "stream.ckpt", other, fc).save(foreign);
  starts_fresh("different configuration");
  std::filesystem::remove_all(dir);
}

TEST(RunCheckpoint, UncreatableDirectoryIsAnIoError) {
  const auto dir = temp_dir("run_file_blocked");
  const auto file = dir / "plain-file";
  util::write_state_file(file.string(), std::vector<std::uint8_t>{});
  EXPECT_EQ(kind_of([&] {
              core::RunCheckpoint((file / "sub").string(), "stream.ckpt",
                                  run_world_config(), run_fleet_config());
            }),
            StateErrorKind::kIo);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// shard: kill-mid-run resume from the shard files
// ---------------------------------------------------------------------------

sim::WorldConfig shard_world_config() {
  sim::WorldConfig wc;
  wc.num_blocks = 500;
  wc.seed = 97;
  return wc;
}

core::FleetConfig shard_fleet_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

void expect_same_aggregate(const core::ChangeAggregator& a,
                           const core::ChangeAggregator& b) {
  ASSERT_EQ(a.days(), b.days());
  ASSERT_EQ(a.by_cell().size(), b.by_cell().size());
  for (const auto& [cell, series] : a.by_cell()) {
    const auto it = b.by_cell().find(cell);
    ASSERT_NE(it, b.by_cell().end());
    EXPECT_EQ(series.change_sensitive_blocks,
              it->second.change_sensitive_blocks);
    EXPECT_EQ(series.down, it->second.down);
    EXPECT_EQ(series.up, it->second.up);
  }
  for (std::size_t c = 0; c < a.by_continent().size(); ++c) {
    EXPECT_EQ(a.by_continent()[c].down, b.by_continent()[c].down);
    EXPECT_EQ(a.by_continent()[c].up, b.by_continent()[c].up);
    EXPECT_EQ(a.by_continent()[c].change_sensitive_blocks,
              b.by_continent()[c].change_sensitive_blocks);
  }
}

TEST(ShardCheckpoint, KillMidRunThenResumeMatchesUninterrupted) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const sim::World world(wc);
  const auto ref = core::run_fleet(world, fc);
  const auto ref_digest = core::digest_hex(core::fleet_digest(ref));
  const auto ref_agg = core::aggregate_changes(world, ref, fc);

  const auto dir = temp_dir("kill_resume");
  core::ShardConfig sc;
  sc.shard_size = 64;  // 8 shards over ~504 blocks
  sc.checkpoint_dir = dir.string();

  // "Kill" after 3 shards: the capped run records exactly 3 checkpoint
  // files, then stops.
  auto capped = sc;
  capped.max_shards = 3;
  const auto partial = core::run_sharded_fleet(wc, fc, capped);
  EXPECT_EQ(partial.stats.completed_shards, 3u);
  EXPECT_EQ(partial.stats.resumed_shards, 0u);
  const auto files = std::distance(std::filesystem::directory_iterator(dir),
                                   std::filesystem::directory_iterator{});
  EXPECT_EQ(files, 3);

  // Resume in a "fresh process" (new manager, new scheduler): the three
  // recorded shards load, the rest compute, and the merged result is
  // bitwise what an uninterrupted run produces.
  auto resumed = sc;
  resumed.resume = true;
  const auto full = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(full.stats.resumed_shards, 3u);
  EXPECT_EQ(full.stats.completed_shards, full.stats.shards - 3u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(full.fleet)), ref_digest);
  expect_same_aggregate(ref_agg, full.aggregate);

  // Resuming a finished run computes nothing and still matches.
  const auto again = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(again.stats.resumed_shards, again.stats.shards);
  EXPECT_EQ(again.stats.completed_shards, 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(again.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, CorruptShardFileIsRecomputedNotTrusted) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto ref_digest = core::digest_hex(
      core::fleet_digest(core::run_fleet(sim::World(wc), fc)));

  const auto dir = temp_dir("corrupt_shard");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  const auto first = core::run_sharded_fleet(wc, fc, sc);
  const std::size_t n_shards = first.stats.shards;

  // Flip one payload byte in one shard file and truncate another: both
  // must be rejected (kBadCrc / kTruncated under the hood) and simply
  // recomputed.  So must a well-formed file of this run whose block span
  // stops one block short of its slot's (kBadValue).
  {
    auto image = util::read_state_file((dir / "shard-1.ckpt").string());
    image[image.size() / 2] ^= 0xff;
    util::write_state_file((dir / "shard-1.ckpt").string(), image);
    auto short_image =
        util::read_state_file((dir / "shard-2.ckpt").string());
    short_image.resize(short_image.size() / 2);
    util::write_state_file((dir / "shard-2.ckpt").string(), short_image);
    const auto fingerprint =
        core::checkpoint_fingerprint(sim::BlockGenerator(wc).config(), fc, 64);
    const core::CheckpointManager mgr(dir.string(), fingerprint,
                                      first.stats.blocks, 64);
    mgr.record_shard(3, 3 * 64, 4 * 64 - 1, first.fleet, first.aggregate);
  }
  auto resumed = sc;
  resumed.resume = true;
  const auto full = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(full.stats.resumed_shards, n_shards - 3);
  EXPECT_EQ(full.stats.completed_shards, 3u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(full.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, ShardFilesAreTheLedger) {
  // A shard is complete exactly when its file loads; nothing else in the
  // directory is consulted, so only the loss of a shard file itself can
  // cost finished work, and then only that shard's.
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto dir = temp_dir("ledger");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  const auto first = core::run_sharded_fleet(wc, fc, sc);
  const std::size_t n_shards = first.stats.shards;
  const auto digest = core::fleet_digest(first.fleet);
  auto resumed = sc;
  resumed.resume = true;

  // Runs used to keep a manifest.ckpt of completed ids next to the
  // shard files; a directory without one resumes every shard.
  std::filesystem::remove(dir / "manifest.ckpt");
  const auto all = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(all.stats.resumed_shards, n_shards);
  EXPECT_EQ(all.stats.completed_shards, 0u);
  EXPECT_EQ(core::fleet_digest(all.fleet), digest);

  // Losing a middle shard file recomputes exactly that shard, which is
  // recorded again.
  const auto middle = dir / ("shard-" + std::to_string(n_shards / 2) + ".ckpt");
  ASSERT_TRUE(std::filesystem::remove(middle));
  const auto one = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(one.stats.resumed_shards, n_shards - 1);
  EXPECT_EQ(one.stats.completed_shards, 1u);
  EXPECT_EQ(core::fleet_digest(one.fleet), digest);
  expect_same_aggregate(first.aggregate, one.aggregate);
  EXPECT_TRUE(std::filesystem::exists(middle));
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, ForeignFingerprintCheckpointsAreIgnored) {
  const auto dir = temp_dir("foreign");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  sc.resume = true;

  const auto wc_a = shard_world_config();
  const auto fc = shard_fleet_config(2);
  (void)core::run_sharded_fleet(wc_a, fc, sc);

  auto wc_b = wc_a;
  wc_b.seed = 98;  // different world: nothing may be resumed
  const auto ref_digest = core::digest_hex(
      core::fleet_digest(core::run_fleet(sim::World(wc_b), fc)));
  const auto got = core::run_sharded_fleet(wc_b, fc, sc);
  EXPECT_EQ(got.stats.resumed_shards, 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(got.fleet)), ref_digest);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, UnwritableShardFileFailsTypedOnTheCallingThread) {
  // A directory where shard 1's file belongs makes its rename fail in a
  // shard worker; the error must reach the caller, not std::terminate.
  const auto dir = temp_dir("unwritable_shard");
  std::filesystem::create_directories(dir / "shard-1.ckpt");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.max_resident = 4;
  sc.checkpoint_dir = dir.string();
  EXPECT_EQ(kind_of([&] {
              (void)core::run_sharded_fleet(shard_world_config(),
                                            shard_fleet_config(4), sc);
            }),
            StateErrorKind::kIo);
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, SectionsAfterTheOutputsAreNotRead) {
  // Shard files once carried an optional series section after the
  // outputs.  A resume reads the outputs only, so a trailing section —
  // here one whose geometry no image could back — costs nothing.
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto dir = temp_dir("trailing_section");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  const auto first = core::run_sharded_fleet(wc, fc, sc);

  StateWriter w;
  w.begin_section(util::state_tag("SERI"));
  w.u64(1);           // rows
  w.u64(1ULL << 40);  // stride
  w.end_section();
  const auto section = std::span(w.bytes()).subspan(20);  // past the header
  for (std::size_t k = 0; k < first.stats.shards; ++k) {
    const auto path = (dir / ("shard-" + std::to_string(k) + ".ckpt")).string();
    auto image = util::read_state_file(path);
    image.insert(image.end(), section.begin(), section.end());
    util::write_state_file(path, image);
  }
  auto resumed = sc;
  resumed.resume = true;
  const auto again = core::run_sharded_fleet(wc, fc, resumed);
  EXPECT_EQ(again.stats.resumed_shards, first.stats.shards);
  EXPECT_EQ(again.stats.completed_shards, 0u);
  EXPECT_EQ(core::fleet_digest(again.fleet), core::fleet_digest(first.fleet));
  std::filesystem::remove_all(dir);
}

TEST(ShardCheckpoint, ShardAndManifestFilesArePinned) {
  // Each shard's bytes depend only on its blocks, so the pins hold at
  // any thread count.
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto dir = temp_dir("pinned");
  core::ShardConfig sc;
  sc.shard_size = 64;
  sc.checkpoint_dir = dir.string();
  const auto got = core::run_sharded_fleet(wc, fc, sc);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(got.fleet)),
            "a938277e9fdf51bf");
  std::string crcs;
  for (std::size_t k = 0; k < got.stats.shards; ++k) {
    const auto image = util::read_state_file(
        (dir / ("shard-" + std::to_string(k) + ".ckpt")).string());
    char crc[16];
    std::snprintf(crc, sizeof(crc), k == 0 ? "%08x" : " %08x",
                  util::crc32(image));
    crcs += crc;
  }
  // crc32 of shard-0 ... shard-7.
  EXPECT_EQ(crcs,
            "87f2bcaf c0977e43 59228c3b 87c58fb4 c5319e28 2d1cf093 c851b8ac "
            "78d76381");
  std::filesystem::remove_all(dir);
  EXPECT_EQ(core::checkpoint_fingerprint(wc, fc, 64), 0x252ce201a6a07089ULL);
  EXPECT_EQ(core::checkpoint_fingerprint(wc, fc, 0), 0xfe8ca450af9e5048ULL);
}

TEST(ShardCheckpoint, FingerprintSeparatesConfigsButNotExecutionShape) {
  const auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  const auto base = core::checkpoint_fingerprint(wc, fc, 64);

  auto threads = fc;
  threads.threads = 8;  // execution shape: digest-invariant, same print
  EXPECT_EQ(core::checkpoint_fingerprint(wc, threads, 64), base);
  auto width = fc;
  width.analysis_batch_width = 1;
  EXPECT_EQ(core::checkpoint_fingerprint(wc, width, 64), base);

  auto other_world = wc;
  other_world.seed = 98;
  EXPECT_NE(core::checkpoint_fingerprint(other_world, fc, 64), base);
  auto other_ds = fc;
  other_ds.dataset = core::dataset("2020w2-ejnw");
  EXPECT_NE(core::checkpoint_fingerprint(wc, other_ds, 64), base);
  auto faulted = fc;
  faulted.faults = fault::scenario("dropout", fc.dataset.window());
  EXPECT_NE(core::checkpoint_fingerprint(wc, faulted, 64), base);
  EXPECT_NE(core::checkpoint_fingerprint(wc, fc, 32), base);
}

TEST(ShardCheckpoint, FingerprintCoversCalendarAndLayerContent) {
  // A foreign checkpoint whose world has the same number of planted
  // events — but a different date, adoption rate, or ramp width — is a
  // different experiment and must not be resumable.  Same for the
  // country-layer stack and the new detector toggles.
  auto wc = shard_world_config();
  const auto fc = shard_fleet_config(2);
  // The shard config's calendar is empty; plant one event so content
  // mutations have something to vary.
  sim::Event planted;
  planted.kind = sim::EventKind::kWorkFromHome;
  planted.name = "fingerprint-probe";
  planted.scope.country_code = "US";
  planted.start = util::time_of(2020, 2, 1);
  planted.end = util::time_of(2020, 7, 1);
  wc.calendar.push_back(std::move(planted));
  const auto base = core::checkpoint_fingerprint(wc, fc, 64);

  auto shifted = wc;
  shifted.calendar[0].start += util::kSecondsPerDay;
  EXPECT_NE(core::checkpoint_fingerprint(shifted, fc, 64), base);

  auto ramped = wc;
  ramped.calendar[0].ramp_days = 10;
  EXPECT_NE(core::checkpoint_fingerprint(ramped, fc, 64), base);

  auto adopted = wc;
  adopted.calendar[0].adoption += 0.05;
  EXPECT_NE(core::checkpoint_fingerprint(adopted, fc, 64), base);

  auto layered = wc;
  sim::CountryLayerOverride o;
  o.code = "US";
  o.cgnat_trend_per_year = 1.0;
  layered.country_layers.push_back(std::move(o));
  EXPECT_NE(core::checkpoint_fingerprint(layered, fc, 64), base);

  auto dst = wc;
  sim::CountryLayerOverride d;
  d.code = "US";
  d.dst = geo::DstPolicy::kNorthern;
  dst.country_layers.push_back(std::move(d));
  EXPECT_NE(core::checkpoint_fingerprint(dst, fc, 64), base);
  EXPECT_NE(core::checkpoint_fingerprint(dst, fc, 64),
            core::checkpoint_fingerprint(layered, fc, 64));

  auto phase = fc;
  phase.detector.phase_shift_filter = true;
  EXPECT_NE(core::checkpoint_fingerprint(wc, phase, 64), base);
}

// ---------------------------------------------------------------------------
// Crafted images: every framing check passes (valid CRCs), but a count,
// geometry or index would address memory out of range.  Each must end
// in a StateError inside restore, never in a later crash.
// ---------------------------------------------------------------------------

/// A CUSUM image with the given series lengths and scan index, every
/// other field at its begin() value.
std::vector<std::uint8_t> cusum_image(std::size_t x_len, std::size_t g_len,
                                      std::uint64_t next_index) {
  StateWriter w;
  w.begin_section(util::state_tag("CSUM"));
  w.f64(1.0);                                   // threshold
  w.f64(0.001);                                 // drift
  w.f64_span(std::vector<double>(x_len, 0.5));  // x
  w.f64_span(std::vector<double>(g_len, 0.0));  // g_pos
  w.f64_span(std::vector<double>(g_len, 0.0));  // g_neg
  w.u64(0);                                     // confirmed changes
  w.u64(next_index);                            // i
  // gp, gn, tap, tan, excursion, up, g, peak, start, alarm, end, j
  w.f64(0.0);
  w.f64(0.0);
  w.u64(0);
  w.u64(0);
  w.boolean(false);
  w.boolean(false);
  w.f64(0.0);
  w.f64(0.0);
  for (int i = 0; i < 4; ++i) w.u64(0);
  w.end_section();
  return w.take();
}

void restore_cusum(const std::vector<std::uint8_t>& image) {
  analysis::OnlineCusum c;
  StateReader r(image);
  r.begin_section(util::state_tag("CSUM"));
  c.restore(r);
  r.end_section();
}

TEST(CraftedImage, CusumSeriesLengthsMustAgree) {
  EXPECT_NO_THROW(restore_cusum(cusum_image(4, 4, 1)));
  // push() would write g_pos_[i_] past a one-sample trajectory.
  EXPECT_EQ(kind_of([] { restore_cusum(cusum_image(4, 1, 1)); }),
            StateErrorKind::kBadValue);
}

TEST(CraftedImage, CusumScanIndexStartsAtOne) {
  // push() would read x_[i_ - 1] before the series.
  EXPECT_EQ(kind_of([] { restore_cusum(cusum_image(4, 4, 0)); }),
            StateErrorKind::kBadValue);
}

/// Re-frames a one-section image around `payload` with a matching
/// length and CRC.
std::vector<std::uint8_t> reframe(const std::vector<std::uint8_t>& image,
                                  const std::vector<std::uint8_t>& payload) {
  constexpr std::size_t kHeader = 20;  // magic, sentinel, version, flags
  std::vector<std::uint8_t> out(image.begin(), image.begin() + kHeader + 4);
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = util::crc32(payload);
  const auto* l = reinterpret_cast<const std::uint8_t*>(&len);
  const auto* c = reinterpret_cast<const std::uint8_t*>(&crc);
  out.insert(out.end(), l, l + 8);
  out.insert(out.end(), c, c + 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::size_t skip_varint(const std::vector<std::uint8_t>& b, std::size_t pos) {
  while (b[pos] & 0x80u) ++pos;
  return pos + 1;
}

TEST(CraftedImage, BlockStreamProberCursorStaysInsideTheProbeOrder) {
  const sim::BlockProfile* block = nullptr;
  for (const auto& b : recon_world().blocks()) {
    if (b.eb_count > 0 && b.eb_count < 64) {
      block = &b;
      break;
    }
  }
  ASSERT_NE(block, nullptr);
  const auto ds = core::dataset("2020w2-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();
  probe::ProbeScratch scratch;
  recon::BlockStream first;
  first.begin(*block, oc, scratch);
  first.advance_to(oc.window.start + (oc.window.end - oc.window.start) / 2);
  StateWriter w;
  w.begin_section(util::state_tag("STRM"));
  first.save(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.take();

  // Payload: classify flag, delivered, observer count, then observer
  // 0's next round and its prober cursor.  Point the cursor at 200,
  // past the 2 * eb_count doubled probe order.
  std::vector<std::uint8_t> payload(image.begin() + 36, image.end());
  std::size_t pos = 1;
  for (int field = 0; field < 3; ++field) pos = skip_varint(payload, pos);
  const std::size_t end = skip_varint(payload, pos);
  payload.erase(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                payload.begin() + static_cast<std::ptrdiff_t>(end));
  const std::uint8_t cursor_200[] = {0xC8, 0x01};
  payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                 std::begin(cursor_200), std::end(cursor_200));

  const auto restore = [&](const std::vector<std::uint8_t>& img) {
    recon::BlockStream second;
    second.begin(*block, oc, scratch);
    StateReader r(img);
    r.begin_section(util::state_tag("STRM"));
    second.restore(r);
    r.end_section();
  };
  EXPECT_NO_THROW(restore(image));
  EXPECT_EQ(kind_of([&] { restore(reframe(image, payload)); }),
            StateErrorKind::kBadValue);
}

/// Replaces the varint at `pos` with `value` (re-encoded, any length).
void replace_varint(std::vector<std::uint8_t>& b, std::size_t pos,
                    std::uint64_t value) {
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos),
          b.begin() + static_cast<std::ptrdiff_t>(skip_varint(b, pos)));
  std::vector<std::uint8_t> enc;
  for (; value >= 0x80u; value >>= 7) {
    enc.push_back(static_cast<std::uint8_t>(value) | 0x80u);
  }
  enc.push_back(static_cast<std::uint8_t>(value));
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos), enc.begin(),
           enc.end());
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

TEST(CraftedImage, ReconCountersMustMatchTheAddressStates) {
  // An 8-address block after a few rounds: addresses 0-5 observed,
  // 1, 2, 4 and 5 up.
  const probe::ProbeWindow window{0, util::kSecondsPerDay};
  recon::BlockReconState state;
  state.begin(8, window);
  for (std::uint32_t i = 0; i < 12; ++i) {
    const auto addr = static_cast<std::uint8_t>(i % 6);
    state.push(probe::Observation{i * 660, addr, i % 3 != 0});
  }
  StateWriter w;
  w.begin_section(util::state_tag("RECN"));
  state.save(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.take();

  // Payload: eb_count and sample count, the 256 address states (one
  // byte each), the 256 last-seen times, then the active and observed
  // counters (zigzag varints).
  const std::vector<std::uint8_t> clean(image.begin() + 36, image.end());
  const std::size_t states = skip_varint(clean, skip_varint(clean, 0));
  std::size_t active = states + 256;
  for (int a = 0; a < 256; ++a) active = skip_varint(clean, active);
  ASSERT_EQ(clean[active], zigzag(4));

  const auto restore = [&](const std::vector<std::uint8_t>& payload) {
    recon::BlockReconState second;
    second.begin(8, window);
    const std::vector<std::uint8_t> framed = reframe(image, payload);
    StateReader r(framed);
    r.begin_section(util::state_tag("RECN"));
    second.restore(r);
    r.end_section();
  };
  const auto rejected = [&](const std::vector<std::uint8_t>& payload) {
    return kind_of([&] { restore(payload); }) == StateErrorKind::kBadValue;
  };
  EXPECT_NO_THROW(restore(clean));

  // Counters near INT_MAX would overflow on the next push.
  auto near_max = clean;
  replace_varint(near_max, active, zigzag(2147483646));
  EXPECT_TRUE(rejected(near_max));
  auto miscounted = clean;
  replace_varint(miscounted, skip_varint(clean, active), zigzag(7));
  EXPECT_TRUE(rejected(miscounted));

  // A state byte outside {-1, 0, 1}.
  auto two = clean;
  two[states + 1] = 2;
  EXPECT_TRUE(rejected(two));

  // An address past the block's eight, observed down, with the
  // observed count raised to match it.
  auto past = clean;
  past[states + 8] = 0;
  replace_varint(past, skip_varint(clean, active), zigzag(7));
  EXPECT_TRUE(rejected(past));
}

TEST(CraftedImage, AggregatorDayCountMustFitTheSection) {
  StateWriter w;
  w.begin_section(util::state_tag("AGGR"));
  w.i64(0);           // start
  w.u64(1ULL << 40);  // days
  w.i64(0);           // first continent: change-sensitive blocks
  w.u64(1ULL << 40);  // and its day-series length
  w.end_section();
  EXPECT_EQ(kind_of([&] {
              core::ChangeAggregator agg;
              StateReader r(w.bytes());
              r.begin_section(util::state_tag("AGGR"));
              agg.restore(r);
            }),
            StateErrorKind::kTruncated);
}

TEST(CraftedImage, OutcomeChangeCountMustFitTheSection) {
  StateWriter w;
  w.begin_section(util::state_tag("OUTC"));
  w.u32(7);  // block id
  core::fields(w, core::BlockClassification{});
  w.u64(1ULL << 61);  // changes
  w.end_section();
  EXPECT_EQ(kind_of([&] {
              core::BlockOutcome o;
              StateReader r(w.bytes());
              r.begin_section(util::state_tag("OUTC"));
              core::fields(r, o);
            }),
            StateErrorKind::kTruncated);
}

// ---------------------------------------------------------------------------
// util: peak-RSS reset probe (containers without writable clear_refs)
// ---------------------------------------------------------------------------

TEST(MemCheckpoint, PeakResetProbeIsStableAndHonest) {
  // The probe must be deterministic within a process, and when it
  // reports support, an immediate reset must actually pull VmHWM down
  // to (near) current RSS rather than silently no-oping.
  const bool supported = util::peak_reset_supported();
  EXPECT_EQ(util::peak_reset_supported(), supported);
  if (supported) {
    ASSERT_TRUE(util::reset_peak_rss());
    const auto m = util::read_memory_usage();
    ASSERT_TRUE(m.valid);
    EXPECT_LE(m.peak_rss_kb, m.rss_kb + 4096u);
  } else {
    EXPECT_FALSE(util::reset_peak_rss());
  }
}

}  // namespace
}  // namespace diurnal
