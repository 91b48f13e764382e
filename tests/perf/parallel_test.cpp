// WorkerPool: static chunking, exact index coverage on every
// (count, lanes, workers) shape, which thread runs which lane, the join
// (also when a lane throws), deterministic exception choice, dispatch
// counters, the lease cache, and a dispatch stress loop that exercises the
// sleep/wake handshake with real threads (the TSAN job's main subject).
#include "perf/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace treeaa::perf {
namespace {

TEST(WorkerPool, ResolveLanesAndChunkSize) {
  EXPECT_EQ(WorkerPool::resolve_lanes(1), 1u);
  EXPECT_EQ(WorkerPool::resolve_lanes(7), 7u);
  EXPECT_GE(WorkerPool::resolve_lanes(0), 1u);  // hardware concurrency

  EXPECT_EQ(WorkerPool::chunk_size(10, 2), 5u);
  EXPECT_EQ(WorkerPool::chunk_size(10, 3), 4u);
  EXPECT_EQ(WorkerPool::chunk_size(1, 8), 1u);
  EXPECT_EQ(WorkerPool::chunk_size(0, 4), 0u);
}

TEST(WorkerPool, WorkersNeverExceedLanes) {
  WorkerPool pool(4, 16);
  EXPECT_EQ(pool.lanes(), 4u);
  EXPECT_LE(pool.workers(), 4u);
}

// Every index in [0, count) is visited exactly once, by the lane its
// static chunk dictates — for single-worker (inline) and multi-worker
// execution alike. This is the partition the engine's byte-identical
// merge order is built on.
TEST(WorkerPool, CoversEveryIndexExactlyOnceWithStaticChunks) {
  for (const std::size_t lanes : {2u, 3u, 8u}) {
    for (const std::size_t workers : {1u, 2u, 3u}) {
      WorkerPool pool(lanes, workers);
      for (const std::size_t count : {0u, 1u, 5u, 8u, 17u}) {
        const std::size_t chunk = WorkerPool::chunk_size(count, lanes);
        std::vector<std::vector<std::size_t>> per_lane(lanes);
        pool.run(count, [&](std::size_t lane, std::size_t begin,
                            std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            per_lane[lane].push_back(i);
        });
        std::vector<int> seen(count, 0);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          for (const std::size_t i : per_lane[lane]) {
            ASSERT_LT(i, count);
            ++seen[i];
            EXPECT_EQ(i / chunk, lane)
                << "index " << i << " ran on the wrong lane";
          }
        }
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(seen[i], 1) << "index " << i << " count=" << count
                                << " lanes=" << lanes
                                << " workers=" << workers;
        }
      }
    }
  }
}

TEST(WorkerPool, RethrowsLowestLaneException) {
  WorkerPool pool(4, 2);
  try {
    pool.run(4, [](std::size_t lane, std::size_t, std::size_t) {
      if (lane == 1) throw std::runtime_error("lane one");
      if (lane == 3) throw std::runtime_error("lane three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane one");
  }
  // The pool survives a throwing dispatch.
  std::atomic<int> hits{0};
  pool.run(4, [&](std::size_t, std::size_t begin, std::size_t end) {
    hits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(hits.load(), 4);
}

// The caller is worker 0 and runs the lanes congruent to 0 mod workers();
// every other lane runs on the spawned worker that owns its residue.
TEST(WorkerPool, CallerRunsLanesCongruentToZero) {
  WorkerPool pool(8, 3);
  ASSERT_EQ(pool.workers(), 3u);
  std::vector<std::thread::id> ran_on(8);
  pool.run(8, [&](std::size_t lane, std::size_t, std::size_t) {
    ran_on[lane] = std::this_thread::get_id();
  });
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t lane = 0; lane < 8; ++lane) {
    EXPECT_EQ(ran_on[lane] == caller, lane % 3 == 0) << "lane " << lane;
    EXPECT_EQ(ran_on[lane], ran_on[lane % 3]) << "lane " << lane;
  }
  EXPECT_NE(ran_on[1], ran_on[2]);
}

// With one worker there are no threads at all: every lane runs inline on
// the caller, in lane order.
TEST(WorkerPool, SingleWorkerRunsEveryLaneInlineInLaneOrder) {
  WorkerPool pool(5, 1);
  ASSERT_EQ(pool.workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run(10, [&](std::size_t lane, std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "lane " << lane;
    order.push_back(lane);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// A throwing lane does not cut the join short: run() rethrows only after
// every other lane has finished, so nothing is still writing caller-owned
// state when the exception reaches the caller.
TEST(WorkerPool, ThrowingCallerLaneStillJoinsEveryLane) {
  WorkerPool pool(4, 4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> finished(4, 0);
    EXPECT_THROW(
        pool.run(4,
                 [&](std::size_t lane, std::size_t, std::size_t) {
                   if (lane == 0) throw std::runtime_error("caller lane");
                   std::this_thread::sleep_for(std::chrono::microseconds(200));
                   finished[lane] = 1;
                 }),
        std::runtime_error);
    EXPECT_EQ(finished, (std::vector<int>{0, 1, 1, 1}))
        << "attempt " << attempt;
  }
}

// dispatches counts run() calls that had work; lane_items accumulates each
// lane's static chunk. An empty dispatch touches neither.
TEST(WorkerPool, DispatchStatsCountRunsAndLaneItems) {
  for (const std::size_t workers : {1u, 3u}) {
    WorkerPool pool(3, workers);
    const auto noop = [](std::size_t, std::size_t, std::size_t) {};
    pool.run(0, noop);
    EXPECT_EQ(pool.stats().dispatches, 0u);
    pool.run(7, noop);  // chunks 3, 3, 1
    pool.run(2, noop);  // chunks 1, 1, 0
    const WorkerPool::DispatchStats stats = pool.stats();
    EXPECT_EQ(stats.dispatches, 2u) << "workers=" << workers;
    EXPECT_EQ(stats.lane_items, (std::vector<std::uint64_t>{4, 4, 1}))
        << "workers=" << workers;
    if (workers == 1) {
      // Inline execution never wakes, spins for, or sleeps on anything.
      EXPECT_EQ(stats.notify_wakeups, 0u);
      EXPECT_EQ(stats.spin_wakeups, 0u);
      EXPECT_EQ(stats.cv_sleeps, 0u);
    }
  }
}

TEST(WorkerPool, LeaseIsEmptyForSerialLaneCounts) {
  const WorkerPool::Lease lease = WorkerPool::lease(1);
  EXPECT_EQ(lease.get(), nullptr);
  EXPECT_FALSE(lease);
}

TEST(WorkerPool, LeaseCacheReusesPools) {
  WorkerPool* first = nullptr;
  {
    const WorkerPool::Lease lease = WorkerPool::lease(3);
    ASSERT_NE(lease.get(), nullptr);
    EXPECT_EQ(lease.get()->lanes(), 3u);
    first = lease.get();
  }
  const WorkerPool::Lease again = WorkerPool::lease(3);
  EXPECT_EQ(again.get(), first) << "returned pool should be recycled";
}

// The cache matches on lane count and worker count only: a lease never
// hands out a pool that another lease still holds, nor one with a
// different lane count, and a leased pool has the default worker count.
TEST(WorkerPool, LeaseCacheKeysOnLanesAndWorkers) {
  const WorkerPool::Lease three = WorkerPool::lease(3);
  const WorkerPool::Lease other_three = WorkerPool::lease(3);
  const WorkerPool::Lease four = WorkerPool::lease(4);
  ASSERT_TRUE(three && other_three && four);
  EXPECT_NE(three.get(), other_three.get());
  EXPECT_NE(three.get(), four.get());
  EXPECT_EQ(four.get()->lanes(), 4u);
  EXPECT_EQ(three.get()->workers(), WorkerPool::default_workers(3));
  EXPECT_EQ(four.get()->workers(), WorkerPool::default_workers(4));
  EXPECT_LE(WorkerPool::default_workers(4), 4u);
}

// Back-to-back dispatches through the generation/done handshake, with
// forced multi-threading so a single-core host still exercises the
// concurrent path (this is the test the CI TSAN job leans on).
TEST(WorkerPool, RepeatedDispatchStress) {
  WorkerPool pool(4, 3);
  std::vector<std::size_t> lane_sums(4, 0);
  constexpr std::size_t kDispatches = 2000;
  for (std::size_t d = 0; d < kDispatches; ++d) {
    pool.run(8, [&](std::size_t lane, std::size_t begin, std::size_t end) {
      lane_sums[lane] += end - begin;
    });
  }
  for (const std::size_t sum : lane_sums) {
    EXPECT_EQ(sum, 2 * kDispatches);  // 8 indices over 4 lanes
  }
}

}  // namespace
}  // namespace treeaa::perf
