// Query-plane tests (DESIGN.md section 13): the concurrency primitives,
// the pinned-reader property — a snapshot's answers are bitwise frozen
// no matter how far the writer advances — the snapshot-image-is-a-
// checkpoint property, N-readers/1-writer stress across engine thread
// counts, backpressure accounting, and the golden drain digest shared
// with tests/test_checkpoint.cc and the bench-smoke CI gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/snapshot_server.h"
#include "sim/world.h"
#include "util/bounded_queue.h"
#include "util/date.h"
#include "util/epoch_registry.h"
#include "util/state_io.h"

namespace diurnal {
namespace {

// Shared with tests/test_checkpoint.cc and the bench-smoke CI gate.
constexpr char kGoldenDigest[] = "f94c66488def6938";

const sim::World& small_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 120;
    c.seed = 7;
    return c;
  }());
  return world;
}

core::FleetConfig small_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

std::string batch_digest(const sim::World& world,
                         const core::FleetConfig& fc) {
  return core::digest_hex(core::fleet_digest(core::run_fleet(world, fc)));
}

// ---------------------------------------------------------------------------
// util: the concurrency primitives under the server
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoWithinCapacityAndCountersTrack) {
  util::BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full: try_push never blocks
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peak_size(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pushed(), 3u);
  EXPECT_EQ(q.push_waits(), 0u);  // never blocked
  EXPECT_EQ(util::BoundedQueue<int>(0).capacity(), 1u);  // clamped
}

TEST(BoundedQueueTest, FullQueueBlocksProducerAndCountsTheWait) {
  util::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_TRUE(q.push(2)); });  // blocks: full
  // The queue stays full until we pop, so the producer must eventually
  // record its wait; push_waits_ is bumped before the condvar wait, so
  // observing it means the producer is parked.  Only then free the slot
  // — popping earlier would let the push slip through without blocking.
  while (q.push_waits() == 0) std::this_thread::yield();
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.push_waits(), 1u);
}

TEST(BoundedQueueTest, CloseWakesEveryoneAndDrainsRemainingItems) {
  util::BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  std::thread blocked_producer([&] { EXPECT_FALSE(q.push(9)); });
  std::thread closer([&] { q.close(); });
  closer.join();
  blocked_producer.join();
  EXPECT_FALSE(q.push(10));      // closed: rejected immediately
  EXPECT_EQ(q.pop(), 7);         // items queued before close still drain
  EXPECT_EQ(q.pop(), 8);
  EXPECT_EQ(q.pop(), std::nullopt);  // drained + closed
}

TEST(EpochRegistryTest, PublishSwapsVersionsAndWaitersUnblock) {
  util::EpochRegistry<int> reg;
  EXPECT_EQ(reg.current(), nullptr);
  EXPECT_EQ(reg.version(), 0u);

  reg.publish(std::make_shared<const int>(10));
  const auto pinned = reg.current();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(*pinned, 10);
  EXPECT_EQ(reg.version(), 1u);

  std::thread waiter([&] {
    const auto got = reg.wait_for_version(2);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, 20);
  });
  reg.publish(std::make_shared<const int>(20));
  waiter.join();

  // The pin taken at version 1 survives the swap untouched.
  EXPECT_EQ(*pinned, 10);

  std::thread blocked([&] { EXPECT_EQ(reg.wait_for_version(99), reg.current()); });
  reg.close();  // close releases waiters with whatever is current
  blocked.join();
}

// ---------------------------------------------------------------------------
// SnapshotServer: equivalence, pinning, restore
// ---------------------------------------------------------------------------

TEST(SnapshotServerTest, DrainedServeMatchesBatchDigest) {
  const auto fc = small_config(2);
  const auto want = batch_digest(small_world(), fc);

  core::SnapshotServer server(small_world(), fc);
  server.start();
  EXPECT_GT(server.feed_all(), 0u);
  const auto res = server.drain();
  EXPECT_EQ(core::digest_hex(core::fleet_digest(res)), want);

  const auto snap = server.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->final_epoch());
  EXPECT_TRUE(snap->scorecard().classification_complete);
  EXPECT_EQ(snap->scorecard().funnel.routed, res.funnel.routed);
  EXPECT_EQ(snap->scorecard().funnel.change_sensitive,
            res.funnel.change_sensitive);
  EXPECT_EQ(snap->rows(), small_world().blocks().size());
}

TEST(SnapshotServerTest, PinnedEpochAnswersAreBitwiseFrozen) {
  // The tentpole property: pin epoch k, hash every query answer, let
  // the writer run the window out, hash again — identical.  Repeated at
  // an early, a mid and the final epoch.
  const auto fc = small_config(2);
  core::SnapshotServer server(small_world(), fc);
  server.start();

  const auto span = server.window_end() - server.window_start();
  ASSERT_TRUE(server.feed(server.window_start() + span / 5));
  const auto early = server.wait_for_epoch(1);
  ASSERT_NE(early, nullptr);
  const std::uint64_t early_digest = early->answers_digest();

  ASSERT_TRUE(server.feed(server.window_start() + (2 * span) / 3));
  const auto mid = server.wait_for_epoch(2);
  ASSERT_NE(mid, nullptr);
  const std::uint64_t mid_digest = mid->answers_digest();
  EXPECT_EQ(early->answers_digest(), early_digest);  // unchanged by epoch 2

  server.feed_all();
  (void)server.drain();

  // However far the writer got, the pinned epochs answer bit-for-bit
  // what they answered at publish time.
  EXPECT_EQ(early->answers_digest(), early_digest);
  EXPECT_EQ(mid->answers_digest(), mid_digest);
  EXPECT_NE(early_digest, mid_digest);  // and epochs genuinely differ
  EXPECT_EQ(early->epoch_index() + 1, mid->epoch_index());
}

TEST(SnapshotServerTest, SnapshotImageIsARestorableCheckpoint) {
  // A pinned snapshot's image() fed into a fresh server must finish the
  // run to the exact batch digest — the snapshot currency contract.
  const auto fc = small_config(2);
  const auto want = batch_digest(small_world(), fc);

  core::SnapshotServer first(small_world(), fc);
  first.start();
  const auto span = first.window_end() - first.window_start();
  ASSERT_TRUE(first.feed(first.window_start() + span / 3));
  const auto snap = first.wait_for_epoch(1);
  ASSERT_NE(snap, nullptr);
  ASSERT_FALSE(snap->image().empty());
  first.stop();  // abandon mid-window; the image is the checkpoint

  core::SnapshotServer second(small_world(), fc);
  {
    util::StateReader r(snap->image());
    second.restore(r);
  }
  second.start();
  second.feed_all();
  EXPECT_EQ(core::digest_hex(core::fleet_digest(second.drain())), want);
}

TEST(SnapshotServerTest, QuerySurfaceIsInternallyConsistent) {
  const auto fc = small_config(2);
  core::SnapshotServer server(small_world(), fc);
  server.start();
  server.feed_all();
  (void)server.drain();
  const auto snap = server.snapshot();
  ASSERT_NE(snap, nullptr);

  // Every world block resolves; an id outside the span does not.
  std::size_t with_trend = 0;
  std::size_t alarms_via_blocks = 0;
  for (const auto& b : small_world().blocks()) {
    const auto* row = snap->block(b.id);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->id.id(), b.id.id());
    EXPECT_TRUE(row->classified);
    const auto tr = snap->trend(b.id);
    if (!tr.empty()) ++with_trend;
    alarms_via_blocks += snap->alarms_for(b.id).size();
  }
  EXPECT_GT(with_trend, 0u);
  EXPECT_EQ(snap->block(net::BlockId(0xfffffff0u)), nullptr);
  EXPECT_TRUE(snap->trend(net::BlockId(0xfffffff0u)).empty());

  // The by-block alarm ranges partition the global alarm log, which is
  // (alarm, id)-ordered.
  EXPECT_EQ(alarms_via_blocks, snap->alarms().size());
  EXPECT_TRUE(std::is_sorted(
      snap->alarms().begin(), snap->alarms().end(),
      [](const core::ProvisionalChange& a, const core::ProvisionalChange& b) {
        return a.alarm != b.alarm ? a.alarm < b.alarm : a.id.id() < b.id.id();
      }));

  // Cell rollups cover exactly the fleet.
  std::size_t cell_blocks = 0;
  std::size_t cell_alarms = 0;
  for (const auto& cs : snap->cells()) {
    EXPECT_EQ(snap->cell(cs.cell)->blocks, cs.blocks);
    cell_blocks += static_cast<std::size_t>(cs.blocks);
    cell_alarms += static_cast<std::size_t>(cs.alarms_down + cs.alarms_up);
  }
  EXPECT_EQ(cell_blocks, snap->rows());
  EXPECT_EQ(cell_alarms, snap->alarms().size());
  EXPECT_EQ(snap->scorecard().alarms_down + snap->scorecard().alarms_up,
            snap->alarms().size());
}

TEST(SnapshotServerTest, BackpressureBoundsTheFeedAndIsAccounted) {
  // A deliberately tiny feed queue against 6-hour ticks: the ticker
  // outruns snapshot building, so pushes must block (never grow memory)
  // and every accepted tick must still be consumed.
  auto fc = small_config(2);
  core::ServeConfig sc;
  sc.epoch_duration = 6 * 3600;
  sc.feed_capacity = 1;
  sc.keep_image = false;
  core::SnapshotServer server(small_world(), fc, sc);
  server.start();
  const std::size_t accepted = server.feed_all();
  (void)server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.feed_accepted, accepted);
  // Every accepted tick became an ingest epoch (the drain-time final
  // snapshot is a registry publish but not an ingest epoch).
  EXPECT_EQ(stats.epochs_published, accepted);
  EXPECT_LE(stats.feed_peak_depth, sc.feed_capacity);
  EXPECT_GT(stats.feed_waits, 0u);
  const auto snap = server.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->image().empty());  // keep_image off
}

TEST(SnapshotServerTest, PublicationCostIsAccountedOutsideTheAnswers) {
  // The writer times its advance, its publication and the state image
  // inside it; the image's bytes are the latest snapshot's.  None of it
  // is an answer: a server without images answers identically.
  const auto fc = small_config(2);
  const auto five_days = [&](bool keep_image) {
    core::ServeConfig sc;
    sc.keep_image = keep_image;
    core::SnapshotServer server(small_world(), fc, sc);
    server.start();
    for (int day = 1; day <= 5; ++day) {
      EXPECT_TRUE(server.feed(server.window_start() +
                              day * util::kSecondsPerDay));
    }
    auto snap = server.wait_for_epoch(5);
    server.stop();
    return std::make_pair(server.stats(), std::move(snap));
  };
  const auto [with, imaged] = five_days(true);
  ASSERT_NE(imaged, nullptr);
  EXPECT_EQ(with.epochs_published, 5u);
  EXPECT_GT(with.advance_seconds, 0.0);
  EXPECT_GT(with.image_seconds, 0.0);
  EXPECT_LE(with.image_seconds, with.publish_seconds);
  EXPECT_EQ(with.image_bytes, imaged->image().size());

  const auto [without, bare] = five_days(false);
  ASSERT_NE(bare, nullptr);
  EXPECT_GT(without.publish_seconds, 0.0);
  EXPECT_EQ(without.image_seconds, 0.0);
  EXPECT_EQ(without.image_bytes, 0u);
  EXPECT_EQ(bare->answers_digest(), imaged->answers_digest());
}

// ---------------------------------------------------------------------------
// Stress: N readers vs 1 writer, across engine thread counts
// ---------------------------------------------------------------------------

void reader_stress(int engine_threads, int n_readers) {
  const auto fc = small_config(engine_threads);
  const auto want = batch_digest(small_world(), fc);

  core::ServeConfig sc;
  sc.epoch_duration = util::kSecondsPerDay;
  core::SnapshotServer server(small_world(), fc, sc);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  const auto& blocks = small_world().blocks();
  for (int t = 0; t < n_readers; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (t + 1);
      std::size_t last_epoch = 0;
      bool first = true;
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = server.snapshot();
        if (snap == nullptr) {
          std::this_thread::yield();
          continue;
        }
        // Publication order is monotone from any reader's viewpoint.
        if (!first) {
          EXPECT_GE(snap->epoch_index(), last_epoch);
        }
        first = false;
        last_epoch = snap->epoch_index();
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const auto& b = blocks[rng % blocks.size()];
        switch (rng % 4) {
          case 0: {
            // The pinned-reader property under true concurrency: two
            // hashes of one pinned snapshot while the writer runs.
            const auto d = snap->answers_digest();
            EXPECT_EQ(snap->answers_digest(), d);
            break;
          }
          case 1: {
            const auto* row = snap->block(b.id);
            ASSERT_NE(row, nullptr);
            EXPECT_EQ(row->id.id(), b.id.id());
            break;
          }
          case 2: {
            const auto tr = snap->trend(b.id);
            if (!tr.empty()) (void)tr.back();
            break;
          }
          default: {
            const auto& score = snap->scorecard();
            EXPECT_LE(score.blocks_watched, score.blocks);
            break;
          }
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  server.start();
  server.feed_all();
  const auto res = server.drain();
  done.store(true);
  for (auto& r : readers) r.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(core::digest_hex(core::fleet_digest(res)), want)
      << "engine threads " << engine_threads << ", readers " << n_readers;
}

TEST(SnapshotServerStress, ReadersNeverTearAtTwoEngineThreads) {
  reader_stress(/*engine_threads=*/2, /*n_readers=*/4);
}

TEST(SnapshotServerStress, ReadersNeverTearAtEightEngineThreads) {
  reader_stress(/*engine_threads=*/8, /*n_readers=*/4);
}

// ---------------------------------------------------------------------------
// The golden drain digest (the cross-suite contract)
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

TEST(SnapshotServerGolden, ServeDrainGoldenDigest) {
  // The drained query surface is pinned too, at two engine thread
  // counts.
  for (const int threads : {1, 4}) {
    core::FleetConfig fc;
    fc.dataset = core::dataset("2020m1-ejnw");
    fc.threads = threads;
    core::ServeConfig sc;
    sc.keep_image = false;  // golden gate needs no checkpoint currency
    core::SnapshotServer server(golden_world(), fc, sc);
    server.start();
    server.feed_all();
    EXPECT_EQ(core::digest_hex(core::fleet_digest(server.drain())),
              kGoldenDigest)
        << "threads " << threads;
    EXPECT_EQ(core::digest_hex(server.snapshot()->answers_digest()),
              "4aae38cce9711df7")
        << "threads " << threads;
  }
}

/// Feeds ten daily epochs, then stops the server; returns the tenth
/// snapshot.
std::shared_ptr<const core::EpochSnapshot> ten_days_then_stop(
    core::SnapshotServer& server) {
  server.start();
  for (int day = 1; day <= 10; ++day) {
    EXPECT_TRUE(server.feed(server.window_start() +
                            day * util::kSecondsPerDay));
  }
  const auto snap = server.wait_for_epoch(10);
  server.stop();
  return snap;
}

TEST(SnapshotServerGolden, TenthDailySnapshotIsPinned) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 4;
  core::SnapshotServer server(golden_world(), fc);
  const auto snap = ten_days_then_stop(server);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch_index(), 9u);
  EXPECT_EQ(core::digest_hex(snap->answers_digest()), "ae04aa5d2be4bed3");
  EXPECT_EQ(snap->image().size(), 7674929u);
  EXPECT_EQ(util::crc32(snap->image()), 0xda4508e6u);
}

TEST(SnapshotServerGolden, StoppedServerSavesTheLastSnapshotImage) {
  // save() on the stopped engine is the serve tool's checkpoint: the
  // very bytes the last published snapshot carries.
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 2;
  core::SnapshotServer server(golden_world(), fc);
  const auto snap = ten_days_then_stop(server);
  ASSERT_NE(snap, nullptr);
  util::StateWriter w;
  server.save(w);
  EXPECT_TRUE(std::equal(w.bytes().begin(), w.bytes().end(),
                         snap->image().begin(), snap->image().end()));
  EXPECT_EQ(util::crc32(w.bytes()), 0xda4508e6u);
}

}  // namespace
}  // namespace diurnal
