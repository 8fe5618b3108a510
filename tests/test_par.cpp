// Tests for gs::par — the deterministic tiled parallel execution engine.
//
// The load-bearing property is the determinism contract: tile
// decomposition is a pure function of (n, grain, max_tiles) — never of the
// pool size — and parallel_reduce combines per-tile partials in a fixed
// tree order. Every reduction here is checked BITWISE across pool sizes,
// including the degenerate single-lane pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "par/par.h"
#include "par/pool.h"
#include "prof/profiler.h"

namespace {

using gs::Box3;
using gs::Index3;
using gs::par::RegionOptions;
using gs::par::ThreadPool;

// ------------------------------------------------------------------ pool

TEST(Pool, RunsEveryTaskExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 3u, 7u}) {
    ThreadPool pool(lanes);
    EXPECT_EQ(pool.lanes(), std::max<std::size_t>(1, lanes));
    const std::size_t n = 153;
    std::vector<std::atomic<int>> hits(n);
    pool.run(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "task " << i << " lanes " << lanes;
    }
  }
}

TEST(Pool, ZeroTasksAndSingleTaskAreInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const auto caller = std::this_thread::get_id();
  pool.run(1, [&](std::size_t) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Pool, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_region());
    // Nested region: must execute inline on this lane, not deadlock on
    // the (already busy) pool.
    pool.run(5, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 40);
  EXPECT_FALSE(ThreadPool::in_region());
}

TEST(Pool, ConcurrentRegionsFromManyThreadsSerialize) {
  // gs::svc workers share the global pool; concurrent run() calls must
  // serialize, each completing all its own tasks.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < 25; ++r) {
        pool.run(7, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 4 * 25 * 7);
}

TEST(Pool, ResizeKeepsWorking) {
  ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.run(10, [&](std::size_t) { n.fetch_add(1); });
  pool.resize(5);
  EXPECT_EQ(pool.lanes(), 5u);
  pool.run(10, [&](std::size_t) { n.fetch_add(1); });
  pool.resize(2);
  pool.run(10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 30);
}

/// Waits (bounded) until `flag` is set; false on timeout.
bool wait_for(const std::atomic<bool>& flag) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Pool, TaskThrowingOnAWorkerIsRethrownByRun) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  // The caller's task holds its lane until a worker has thrown, so the
  // throw is certain to happen on a worker thread.
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t) {
                          if (std::this_thread::get_id() == caller) {
                            EXPECT_TRUE(wait_for(worker_ran));
                            return;
                          }
                          worker_ran = true;
                          GS_THROW(gs::Error, "worker tile failed");
                        }),
               gs::Error);
  EXPECT_TRUE(worker_ran.load());
  EXPECT_FALSE(ThreadPool::in_region());

  std::atomic<int> n{0};
  pool.run(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(Pool, TaskThrowingOnTheCallerIsRethrownAfterTheRegionDrains) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_threw{false};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_after_return{0};
  try {
    pool.run(8, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        caller_threw = true;
        GS_THROW(gs::Error, "caller tile failed");
      }
      in_flight.fetch_add(1);
      EXPECT_TRUE(wait_for(caller_threw));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_flight.fetch_sub(1);
    });
    ADD_FAILURE() << "run() did not rethrow";
  } catch (const gs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("caller tile failed"),
              std::string::npos);
    // No worker is still inside a task of the unwound region.
    max_after_return = in_flight.load();
  }
  EXPECT_EQ(max_after_return.load(), 0);
  EXPECT_FALSE(ThreadPool::in_region());

  std::atomic<int> n{0};
  pool.run(16, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16);
}

TEST(Pool, InlineRegionThatThrowsLeavesTheThreadOutsideARegion) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run(3, [](std::size_t) { GS_THROW(gs::Error, "x"); }),
               gs::Error);
  EXPECT_FALSE(ThreadPool::in_region());
}

// ------------------------------------------------------------------ tiles

TEST(Tiles, PlanIsPureFunctionOfInputNotPoolSize) {
  RegionOptions opts;
  opts.grain = 10;
  const std::int64_t tiles_before = gs::par::plan_tiles(1000, opts);
  gs::par::set_global_lanes(7);
  EXPECT_EQ(gs::par::plan_tiles(1000, opts), tiles_before);
  gs::par::set_global_lanes(1);
  EXPECT_EQ(gs::par::plan_tiles(1000, opts), tiles_before);
}

TEST(Tiles, GrainForcesSingleTileForSmallInputs) {
  RegionOptions opts;
  opts.grain = 32768;
  EXPECT_EQ(gs::par::plan_tiles(32767, opts), 1);
  EXPECT_EQ(gs::par::plan_tiles(1, opts), 1);
  EXPECT_EQ(gs::par::plan_tiles(0, opts), 0);
  EXPECT_GE(gs::par::plan_tiles(2 * 32768, opts), 2);
}

TEST(Tiles, BoundsPartitionTheRangeExactly) {
  for (const std::int64_t n : {1, 7, 64, 1000, 12345}) {
    RegionOptions opts;
    const std::int64_t n_tiles = gs::par::plan_tiles(n, opts);
    std::int64_t covered = 0;
    for (std::int64_t t = 0; t < n_tiles; ++t) {
      const std::int64_t b = gs::par::tile_begin(n, n_tiles, t);
      const std::int64_t e = gs::par::tile_begin(n, n_tiles, t + 1);
      ASSERT_LE(b, e);
      covered += e - b;
    }
    ASSERT_EQ(covered, n);
    ASSERT_EQ(gs::par::tile_begin(n, n_tiles, 0), 0);
    ASSERT_EQ(gs::par::tile_begin(n, n_tiles, n_tiles), n);
  }
}

TEST(Tiles, ForTilesVisitsEachIndexOnce) {
  gs::par::set_global_lanes(4);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  gs::par::parallel_for_tiles(
      n, [&](std::int64_t begin, std::int64_t end, std::int64_t) {
        for (std::int64_t i = begin; i < end; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  gs::par::set_global_lanes(1);
}

TEST(Tiles, For3dCoversExtentWithZSlabs) {
  gs::par::set_global_lanes(3);
  const Index3 extent{5, 4, 13};
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(extent.volume()));
  gs::par::parallel_for_3d(extent, [&](const Box3& tile) {
    // Z-slab shape: full X/Y extent, contiguous k range.
    EXPECT_EQ(tile.start.i, 0);
    EXPECT_EQ(tile.start.j, 0);
    EXPECT_EQ(tile.count.i, extent.i);
    EXPECT_EQ(tile.count.j, extent.j);
    for (std::int64_t k = tile.start.k; k < tile.start.k + tile.count.k;
         ++k) {
      for (std::int64_t j = 0; j < extent.j; ++j) {
        for (std::int64_t i = 0; i < extent.i; ++i) {
          hits[static_cast<std::size_t>(
                   gs::linear_index({i, j, k}, extent))]
              .fetch_add(1);
        }
      }
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  gs::par::set_global_lanes(1);
}

// ----------------------------------------------------------------- reduce

/// A sum whose result depends on association order — the adversarial case
/// for the determinism contract.
double nonassociative_payload(std::int64_t i) {
  return (i % 3 == 0 ? 1.0e16 : 1.0) / static_cast<double>(i + 1);
}

double reduce_sum_with_lanes(std::size_t lanes, std::int64_t n) {
  gs::par::set_global_lanes(lanes);
  RegionOptions opts;
  opts.grain = 1;  // force the full tile tree even for small n
  const double out = gs::par::parallel_reduce<double>(
      n,
      [](std::int64_t begin, std::int64_t end) {
        double s = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          s += nonassociative_payload(i);
        }
        return s;
      },
      [](double a, double b) { return a + b; }, opts);
  gs::par::set_global_lanes(1);
  return out;
}

TEST(Reduce, BitwiseIdenticalForAnyPoolSize) {
  const std::int64_t n = 100000;
  const double base = reduce_sum_with_lanes(1, n);
  for (const std::size_t lanes : {2u, 3u, 7u}) {
    const double got = reduce_sum_with_lanes(lanes, n);
    // Compare BITS, not values: NaN-safe and rounding-exact.
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &base, sizeof a);
    std::memcpy(&b, &got, sizeof b);
    ASSERT_EQ(a, b) << "lanes=" << lanes;
  }
}

TEST(Reduce, SingleTileIsExactlyTheSerialAlgorithm) {
  // grain >= n: the reduce must return tile_fn(0, n) verbatim — the
  // pre-gs::par serial code path, bitwise.
  const std::int64_t n = 1000;
  double serial = 0.0;
  for (std::int64_t i = 0; i < n; ++i) serial += nonassociative_payload(i);
  RegionOptions opts;
  opts.grain = n;
  const double got = gs::par::parallel_reduce<double>(
      n,
      [](std::int64_t begin, std::int64_t end) {
        double s = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          s += nonassociative_payload(i);
        }
        return s;
      },
      [](double a, double b) { return a + b; }, opts);
  EXPECT_EQ(serial, got);
}

TEST(Reduce, WorksWithNonDefaultConstructibleTypes) {
  struct Partial {
    std::int64_t count;
    explicit Partial(std::int64_t c) : count(c) {}
  };
  RegionOptions opts;
  opts.grain = 1;
  const Partial total = gs::par::parallel_reduce<Partial>(
      500,
      [](std::int64_t begin, std::int64_t end) {
        return Partial(end - begin);
      },
      [](Partial a, const Partial& b) {
        a.count += b.count;
        return a;
      },
      opts);
  EXPECT_EQ(total.count, 500);
}

// -------------------------------------------------------------------- crc

std::vector<std::byte> random_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

TEST(Crc, CombineMatchesConcatenation) {
  const auto a = random_bytes(1013, 1);
  const auto b = random_bytes(2039, 2);
  std::vector<std::byte> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(gs::crc32_combine(gs::crc32(a), gs::crc32(b), b.size()),
            gs::crc32(ab));
  // Identity: appending nothing changes nothing.
  EXPECT_EQ(gs::crc32_combine(gs::crc32(a), gs::crc32({}), 0),
            gs::crc32(a));
}

TEST(Crc, ParallelMatchesSerialForAllSizesAndLaneCounts) {
  for (const std::size_t lanes : {1u, 2u, 7u}) {
    gs::par::set_global_lanes(lanes);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{17},
          std::size_t{65535}, std::size_t{65536}, std::size_t{300001}}) {
      const auto data = random_bytes(n, static_cast<unsigned>(n + 7));
      ASSERT_EQ(gs::par::crc32(data), gs::crc32(data))
          << "n=" << n << " lanes=" << lanes;
    }
    // Force the multi-tile path even for small data.
    RegionOptions opts;
    opts.grain = 128;
    const auto data = random_bytes(5000, 42);
    ASSERT_EQ(gs::par::crc32(data, opts), gs::crc32(data))
        << "lanes=" << lanes;
  }
  gs::par::set_global_lanes(1);
}

// ------------------------------------------------------------ observability

TEST(Observability, RegionsRecordPerLaneSpans) {
  gs::par::set_global_lanes(4);
  gs::prof::Profiler profiler;
  RegionOptions opts;
  opts.label = "unit";
  opts.profiler = &profiler;
  opts.grain = 1;
  gs::par::parallel_for_tiles(
      64, [](std::int64_t, std::int64_t, std::int64_t) {}, opts);
  ASSERT_FALSE(profiler.spans().empty());
  std::set<std::uint64_t> lanes_seen;
  for (const auto& s : profiler.spans()) {
    EXPECT_EQ(s.name, "par:unit");
    EXPECT_GE(s.t1, s.t0);
    EXPECT_GE(s.tid, 1u) << "lane ids are 1-based";
    lanes_seen.insert(s.tid);
  }
  // At most one merged span per lane.
  EXPECT_EQ(lanes_seen.size(), profiler.spans().size());
  gs::par::set_global_lanes(1);
}

TEST(Observability, UnlabeledRegionsRecordNothing) {
  gs::prof::Profiler profiler;
  RegionOptions opts;
  opts.profiler = &profiler;  // label left empty
  gs::par::parallel_for_tiles(
      32, [](std::int64_t, std::int64_t, std::int64_t) {}, opts);
  EXPECT_TRUE(profiler.spans().empty());
}

// ----------------------------------------------------------- global pool

TEST(GlobalPool, ConfigureRespectsSettingsAndAuto) {
  // Explicit thread count resizes.
  gs::par::configure_global_pool(3);
  EXPECT_EQ(gs::par::global_pool().lanes(), 3u);
  // 0 = auto: keeps the current size (does NOT clobber a test override).
  gs::par::configure_global_pool(0);
  EXPECT_EQ(gs::par::global_pool().lanes(), 3u);
  gs::par::set_global_lanes(1);
  EXPECT_EQ(gs::par::global_pool().lanes(), 1u);
}

}  // namespace
