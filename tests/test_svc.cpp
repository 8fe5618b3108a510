// Tests for gs::svc — the concurrent dataset-analysis service: every
// verb round-trips against direct gs::analysis answers, admission
// control rejects (never blocks) on a full queue, deadlines expire into
// DeadlineExceeded, shutdown drains, the LRU block cache honors its byte
// budget, and cached reads are bitwise-identical to uncached ones.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "bp/reader.h"
#include "bp/writer.h"
#include "grid/decomp.h"
#include "mpi/runtime.h"
#include "prof/profiler.h"
#include "rpc/wire.h"
#include "svc/cache.h"
#include "svc/merge.h"
#include "svc/service.h"

namespace {

namespace fs = std::filesystem;
using gs::Box3;
using gs::Decomposition;
using gs::Index3;
using namespace gs::svc;

constexpr std::int64_t kL = 16;
constexpr int kSteps = 3;

std::string temp_dataset(const std::string& name) {
  // Per-process suffix: ctest -j runs many test processes concurrently,
  // and Writer truncates its dataset directory — a shared path would race.
  static const std::string pid = std::to_string(::getpid());
  return (fs::path(testing::TempDir()) / (name + "." + pid + ".bp"))
      .string();
}

double cell_value(const Index3& g, const Index3& shape, std::int64_t step) {
  return static_cast<double>(gs::linear_index(g, shape)) +
         1e6 * static_cast<double>(step);
}

/// Writes kSteps of L^3 "U" and "V" with 4 ranks; returns the path.
std::string write_dataset(const std::string& name) {
  const std::string path = temp_dataset(name);
  fs::remove_all(path);
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const Decomposition d = Decomposition::cube(kL, world.size());
    const Box3 box = d.local_box(world.rank());
    const Index3 shape{kL, kL, kL};
    gs::bp::Writer w(path, world, 2);
    for (int s = 0; s < kSteps; ++s) {
      std::vector<double> block(static_cast<std::size_t>(box.volume()));
      std::size_t n = 0;
      for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
        for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
          for (std::int64_t i = box.start.i; i < box.end().i; ++i) {
            block[n++] = cell_value({i, j, k}, shape, s);
          }
        }
      }
      std::vector<double> vblock(block.size());
      for (std::size_t m = 0; m < block.size(); ++m) vblock[m] = -block[m];
      w.begin_step();
      w.put("U", shape, box, block);
      w.put("V", shape, box, vblock);
      w.put_scalar("step", 10 * s);
      w.end_step();
    }
    w.close();
  });
  return path;
}

/// Shared dataset for read-only service tests (written once).
const std::string& dataset() {
  static const std::string path = write_dataset("svc_shared");
  return path;
}

// ---- verb round-trips vs direct analysis ---------------------------------

TEST(SvcVerbs, ListVariablesMatchesReader) {
  Service service(dataset());
  Client client(service);
  const auto r = client.list_variables();
  ASSERT_TRUE(r.ok()) << r.status().message;
  const gs::bp::Reader reader(dataset());
  EXPECT_EQ(r.value().n_steps, reader.n_steps());
  const auto names = reader.variable_names();
  ASSERT_EQ(r.value().variables.size(), names.size());
  for (const auto& v : r.value().variables) {
    const auto info = reader.info(v.name);
    EXPECT_EQ(v.type, info.type);
    EXPECT_EQ(v.shape, info.shape);
    EXPECT_EQ(v.steps, info.steps);
    EXPECT_EQ(v.min, info.min);
    EXPECT_EQ(v.max, info.max);
  }
}

TEST(SvcVerbs, FieldStatsMatchesDirectAnalysis) {
  Service service(dataset());
  Client client(service);
  const gs::bp::Reader reader(dataset());
  for (std::int64_t s = 0; s < kSteps; ++s) {
    const auto r = client.field_stats("U", s);
    ASSERT_TRUE(r.ok()) << r.status().message;
    const auto direct =
        gs::analysis::compute_stats(reader.read_full("U", s));
    EXPECT_EQ(r.value().stats.count, direct.count);
    EXPECT_EQ(r.value().stats.min, direct.min);
    EXPECT_EQ(r.value().stats.max, direct.max);
    EXPECT_EQ(r.value().stats.mean, direct.mean);
    EXPECT_EQ(r.value().stats.stddev, direct.stddev);
  }
}

TEST(SvcVerbs, HistogramMatchesDirectAnalysis) {
  Service service(dataset());
  Client client(service);
  const gs::bp::Reader reader(dataset());
  const auto r = client.histogram("V", 1, 16);
  ASSERT_TRUE(r.ok()) << r.status().message;
  const auto direct =
      gs::analysis::field_histogram(reader.read_full("V", 1), 16);
  ASSERT_EQ(r.value().counts.size(), direct.bins());
  EXPECT_EQ(r.value().total, direct.total());
  EXPECT_EQ(r.value().lo, direct.bin_lo(0));
  EXPECT_EQ(r.value().hi, direct.bin_hi(direct.bins() - 1));
  for (std::size_t b = 0; b < direct.bins(); ++b) {
    EXPECT_EQ(r.value().counts[b], direct.count(b)) << "bin " << b;
  }
}

TEST(SvcVerbs, Slice2DMatchesDirectAnalysis) {
  Service service(dataset());
  Client client(service);
  const gs::bp::Reader reader(dataset());
  for (const int axis : {0, 1, 2}) {
    const auto r = client.slice2d("U", 2, axis, kL / 2);
    ASSERT_TRUE(r.ok()) << r.status().message;
    const auto direct =
        gs::analysis::slice_from_reader(reader, "U", 2, axis, kL / 2);
    EXPECT_EQ(r.value().slice.nx, direct.nx);
    EXPECT_EQ(r.value().slice.ny, direct.ny);
    EXPECT_EQ(r.value().slice.min, direct.min);
    EXPECT_EQ(r.value().slice.max, direct.max);
    EXPECT_EQ(r.value().slice.values, direct.values);
  }
}

TEST(SvcVerbs, ReadBoxMatchesReaderBitwise) {
  Service service(dataset());
  Client client(service);
  const gs::bp::Reader reader(dataset());
  const Box3 box{{3, 2, 5}, {7, 9, 6}};
  const auto r = client.read_box("U", 1, box);
  ASSERT_TRUE(r.ok()) << r.status().message;
  EXPECT_EQ(r.value().values, reader.read("U", 1, box));
}

TEST(SvcVerbs, BadInputIsBadRequestNotCrash) {
  Service service(dataset());
  Client client(service);
  EXPECT_EQ(client.field_stats("nope", 0).status().code,
            StatusCode::bad_request);
  EXPECT_EQ(client.field_stats("U", 99).status().code,
            StatusCode::bad_request);
  EXPECT_EQ(client.slice2d("U", 0, 7, 0).status().code,
            StatusCode::bad_request);
  EXPECT_EQ(client.read_box("U", 0, Box3{{0, 0, 0}, {kL + 1, 1, 1}})
                .status()
                .code,
            StatusCode::bad_request);
  const auto m = service.metrics();
  EXPECT_EQ(m.bad_request, 4u);
  EXPECT_EQ(m.submitted, m.accounted());
}

// ---- cache on/off bitwise identity ---------------------------------------

TEST(SvcCacheIdentity, CachedAndUncachedAnswersAreBitwiseIdentical) {
  // mmap off: this test asserts exact BlockCache counters, so every
  // fetch must go through the copying/cached route.
  ServiceConfig cached;
  cached.cache_enabled = true;
  cached.mmap_reads = false;
  ServiceConfig uncached;
  uncached.cache_enabled = false;
  uncached.mmap_reads = false;
  Service s1(dataset(), std::move(cached));
  Service s2(dataset(), std::move(uncached));
  Client c1(s1), c2(s2);
  const Box3 box{{1, 0, 2}, {kL - 1, kL, kL - 3}};
  for (int repeat = 0; repeat < 2; ++repeat) {  // second pass hits cache
    for (std::int64_t s = 0; s < kSteps; ++s) {
      const auto r1 = c1.read_box("U", s, box);
      const auto r2 = c2.read_box("U", s, box);
      ASSERT_TRUE(r1.ok() && r2.ok());
      EXPECT_EQ(r1.value().values, r2.value().values);
      const auto sl1 = c1.slice2d("V", s, 2, 3);
      const auto sl2 = c2.slice2d("V", s, 2, 3);
      ASSERT_TRUE(sl1.ok() && sl2.ok());
      EXPECT_EQ(sl1.value().slice.values, sl2.value().slice.values);
    }
  }
  const auto m1 = s1.metrics();
  const auto m2 = s2.metrics();
  EXPECT_GT(m1.cache.hits, 0u);
  EXPECT_EQ(m2.cache.hits + m2.cache.misses, 0u);
}

// ---- mmap vs copy bitwise identity ----------------------------------------

TEST(SvcMmapIdentity, ZeroCopyAnswersMatchCopyingAnswersOnEveryVerb) {
  ServiceConfig mapped;
  mapped.mmap_reads = true;
  ServiceConfig copying;
  copying.mmap_reads = false;
  Service s1(dataset(), std::move(mapped));
  Service s2(dataset(), std::move(copying));
  Client c1(s1), c2(s2);

  const auto l1 = c1.list_variables();
  const auto l2 = c2.list_variables();
  ASSERT_TRUE(l1.ok() && l2.ok());
  ASSERT_EQ(l1.value().variables.size(), l2.value().variables.size());
  for (std::size_t i = 0; i < l1.value().variables.size(); ++i) {
    EXPECT_EQ(l1.value().variables[i].min, l2.value().variables[i].min);
    EXPECT_EQ(l1.value().variables[i].max, l2.value().variables[i].max);
  }

  const Box3 box{{1, 3, 0}, {kL - 2, kL - 5, kL}};
  for (const std::string var : {"U", "V"}) {
    for (std::int64_t s = 0; s < kSteps; ++s) {
      const auto st1 = c1.field_stats(var, s);
      const auto st2 = c2.field_stats(var, s);
      ASSERT_TRUE(st1.ok() && st2.ok());
      EXPECT_EQ(st1.value().stats.min, st2.value().stats.min);
      EXPECT_EQ(st1.value().stats.max, st2.value().stats.max);
      EXPECT_EQ(st1.value().stats.mean, st2.value().stats.mean);
      EXPECT_EQ(st1.value().stats.stddev, st2.value().stats.stddev);

      const auto h1 = c1.histogram(var, s, 32);
      const auto h2 = c2.histogram(var, s, 32);
      ASSERT_TRUE(h1.ok() && h2.ok());
      EXPECT_EQ(h1.value().lo, h2.value().lo);
      EXPECT_EQ(h1.value().hi, h2.value().hi);
      EXPECT_EQ(h1.value().counts, h2.value().counts);

      const auto sl1 = c1.slice2d(var, s, 1, kL / 3);
      const auto sl2 = c2.slice2d(var, s, 1, kL / 3);
      ASSERT_TRUE(sl1.ok() && sl2.ok());
      EXPECT_EQ(sl1.value().slice.values, sl2.value().slice.values);

      const auto r1 = c1.read_box(var, s, box);
      const auto r2 = c2.read_box(var, s, box);
      ASSERT_TRUE(r1.ok() && r2.ok());
      EXPECT_EQ(r1.value().values, r2.value().values);
    }
  }

  // Both routes account the same scan volume.
  const auto m1 = s1.metrics();
  const auto m2 = s2.metrics();
  EXPECT_GT(m1.bytes_scanned, 0u);
  EXPECT_EQ(m1.bytes_scanned, m2.bytes_scanned);

  // Re-mapping an already-verified block reports as a per-response cache
  // hit (no BlockCache involved): every block of step 0 was CRC-verified
  // by the sweeps above, so a fresh full scan pays no I/O at all.
  const auto again = c1.field_stats("U", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(c1.last_response().cache_hits, 0u);
  EXPECT_EQ(c1.last_response().cache_misses, 0u);
}

TEST(SvcMmapIdentity, PerResponseScanAccountingIsExact) {
  ServiceConfig config;
  config.mmap_reads = true;
  Service service(dataset(), std::move(config));
  Client client(service);
  const auto r = client.field_stats("U", 0);
  ASSERT_TRUE(r.ok());
  const auto& resp = client.last_response();
  // A full-field scan touches every block of the step exactly once.
  EXPECT_EQ(resp.bytes_scanned, sizeof(double) * kL * kL * kL);
  EXPECT_EQ(resp.cache_hits + resp.cache_misses, 4u);  // 4 writer ranks
  EXPECT_GT(resp.exec_seconds, 0.0);
}

// ---- whole-field reductions in place over the blocks ----------------------

/// The layouts a whole-field reduction meets: blocks that tile the
/// field, blocks that overlap (only read_selection's copy defines the
/// field), and a rank that writes nothing (its cells read as zeros).
enum class Layout { tiled, overlapping, gap };

/// Writes one step of L^3 "U" (cell_value) and "V" (mostly zeros, as in
/// a Gray-Scott V field) from 4 ranks. L = 48 spans several 32768-cell
/// analysis tiles, so tiles cross block boundaries.
std::string write_field(const std::string& name, Layout layout,
                        bool compress, double poison = 0.0) {
  constexpr std::int64_t L = 48;
  const std::string path = temp_dataset(name);
  fs::remove_all(path);
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const Index3 shape{L, L, L};
    Box3 box = Decomposition::cube(L, world.size()).local_box(world.rank());
    if (layout == Layout::overlapping) {
      // Slabs in k, each reaching 3 cells into the next one's.
      box = Box3{{0, 0, 12 * world.rank()},
                 {L, L, std::min<std::int64_t>(15, L - 12 * world.rank())}};
    }
    std::vector<double> u(static_cast<std::size_t>(box.volume()));
    std::vector<double> v(u.size(), 0.0);
    std::size_t n = 0;
    for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
      for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
        for (std::int64_t i = box.start.i; i < box.end().i; ++i, ++n) {
          u[n] = 1.0 + cell_value({i, j, k}, shape, 0) / (L * L * L);
          if ((i + j + k) % 7 == 0) v[n] = 0.25 * u[n];
        }
      }
    }
    if (world.rank() == 1 && poison != 0.0) u[u.size() / 2] = poison;
    gs::bp::Writer w(path, world, 2);
    w.set_compression(compress);
    w.begin_step();
    if (layout != Layout::gap || world.rank() != 2) {
      w.put("U", shape, box, u);
      w.put("V", shape, box, v);
    }
    w.end_step();
    w.close();
  });
  return path;
}

/// Flips one payload byte of block 0 of U, so its CRC check fails.
void damage_first_u_block(const std::string& path) {
  const gs::bp::Reader r(path);
  const gs::bp::BlockRecord victim = r.blocks("U", 0).at(0);
  std::fstream f(fs::path(path) / gs::bp::subfile_name(victim.subfile),
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(victim.offset) + 8);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x20);
  f.seekp(static_cast<std::streamoff>(victim.offset) + 8);
  f.write(&c, 1);
}

Response call(Service& service, QueryBody body) {
  Request req;
  req.body = std::move(body);
  return service.call(req);
}

/// FieldStats and Histogram (with and without a range) on one service
/// answer the same bytes as compute_stats/field_histogram over the
/// whole-shape ReadBox (read_selection's vector) on a twin service, with
/// the same salvage flags and fetch counters request by request.
void expect_in_place_matches_copy(const std::string& path,
                                  const ServiceConfig& config,
                                  std::size_t bad_blocks) {
  Service in_place(path, config);
  Service copying(path, config);
  const gs::bp::Reader reader(path);
  for (const std::string var : {"U", "V"}) {
    const Box3 whole{{0, 0, 0}, reader.info(var).shape};
    const std::vector<QueryBody> queries = {
        FieldStatsQ{var, 0}, HistogramQ{var, 0, 64},
        HistogramQ{var, 0, 16, true, 0.5, 1.5}};
    for (const QueryBody& q : queries) {
      const Response got = call(in_place, q);
      const Response box = call(copying, ReadBoxQ{var, 0, whole});
      ASSERT_TRUE(got.status.ok()) << got.status.message;
      ASSERT_TRUE(box.status.ok()) << box.status.message;
      const auto& values = std::get<ReadBoxR>(box.body).values;

      Response expect;
      expect.verb = got.verb;
      if (const auto* h = std::get_if<HistogramQ>(&q)) {
        expect.body = merge::histogram_response(
            h->has_range
                ? gs::analysis::field_histogram(values, h->bins, h->lo, h->hi)
                : gs::analysis::field_histogram(values, h->bins));
      } else {
        expect.body = FieldStatsR{gs::analysis::compute_stats(values)};
      }
      EXPECT_EQ(gs::rpc::encode_answer_identity(got),
                gs::rpc::encode_answer_identity(expect))
          << var << " verb " << to_string(got.verb);

      const std::size_t bad = var == "U" ? bad_blocks : 0;
      EXPECT_EQ(got.degraded, bad > 0);
      EXPECT_EQ(got.bad_blocks, bad);
      EXPECT_EQ(box.bad_blocks, bad);
      EXPECT_EQ(got.bytes_scanned, box.bytes_scanned);
      EXPECT_EQ(got.cache_hits, box.cache_hits);
      EXPECT_EQ(got.cache_misses, box.cache_misses);
      EXPECT_EQ(got.disk_bytes, box.disk_bytes);
    }
  }
}

ServiceConfig copying_route() {
  ServiceConfig c;
  c.mmap_reads = false;
  return c;
}

TEST(SvcInPlace, MappedRouteMatchesAssembledCopy) {
  const auto path = write_field("inplace_mapped", Layout::tiled, false);
  expect_in_place_matches_copy(path, ServiceConfig{}, 0);
  fs::remove_all(path);
}

TEST(SvcInPlace, CopyingRouteMatchesAssembledCopy) {
  const auto path = write_field("inplace_copying", Layout::tiled, false);
  expect_in_place_matches_copy(path, copying_route(), 0);
  fs::remove_all(path);
}

TEST(SvcInPlace, CompressedBlocksMatchAssembledCopy) {
  const auto path = write_field("inplace_gorilla", Layout::tiled, true);
  expect_in_place_matches_copy(path, ServiceConfig{}, 0);
  expect_in_place_matches_copy(path, copying_route(), 0);
  fs::remove_all(path);
}

TEST(SvcInPlace, DamagedBlockCountsAsZerosAndDegrades) {
  const auto path = write_field("inplace_damaged", Layout::tiled, false);
  damage_first_u_block(path);
  expect_in_place_matches_copy(path, ServiceConfig{}, 1);
  expect_in_place_matches_copy(path, copying_route(), 1);
  fs::remove_all(path);
}

TEST(SvcInPlace, CellsOfNoBlockCountAsZeros) {
  const auto path = write_field("inplace_gap", Layout::gap, false);
  expect_in_place_matches_copy(path, ServiceConfig{}, 0);
  fs::remove_all(path);
}

TEST(SvcInPlace, OverlappingBlocksFallBackToTheAssembledCopy) {
  const auto path = write_field("inplace_overlap", Layout::overlapping, false);
  expect_in_place_matches_copy(path, ServiceConfig{}, 0);
  Service service(path);
  const Response r = call(service, FieldStatsQ{"U", 0});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(std::get<FieldStatsR>(r.body).stats.count, 48u * 48u * 48u);
  fs::remove_all(path);
}

TEST(SvcInPlace, NonFiniteCellIsBadRequestAndTheServiceKeepsServing) {
  // A NaN cell, and one whose square overflows: FieldStats cannot answer
  // either exactly. The reduction throws on a gs::par worker lane; the
  // request must fail alone, not the daemon.
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(), 1e160}) {
    const auto path =
        write_field("inplace_nan", Layout::tiled, false, poison);
    Service service(path);
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(call(service, FieldStatsQ{"U", 0}).status.code,
                StatusCode::bad_request);
      // No NaN-free answer exists; any status will do but a crash.
      call(service, HistogramQ{"U", 0, 64});
      EXPECT_TRUE(call(service, FieldStatsQ{"V", 0}).status.ok());
      EXPECT_TRUE(call(service, HistogramQ{"V", 0, 64}).status.ok());
    }
    fs::remove_all(path);
  }
}

// ---- admission control ----------------------------------------------------

TEST(SvcAdmission, FullQueueAnswersServerBusyImmediately) {
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 2;
  config.before_execute = [&](const Request&) {
    entered.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Service service(dataset(), std::move(config));

  const auto query = [] {
    Request r;
    r.body = FieldStatsQ{"U", 0};
    return r;
  };
  // First request occupies the worker (parked in before_execute)...
  auto f1 = service.submit(query());
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...the next two fill the queue to capacity...
  auto f2 = service.submit(query());
  auto f3 = service.submit(query());
  // ...and the fourth is rejected immediately, without blocking.
  auto f4 = service.submit(query());
  const Response rejected = f4.get();
  EXPECT_EQ(rejected.status.code, StatusCode::server_busy);

  release.store(true);
  EXPECT_EQ(f1.get().status.code, StatusCode::ok);
  EXPECT_EQ(f2.get().status.code, StatusCode::ok);
  EXPECT_EQ(f3.get().status.code, StatusCode::ok);

  const auto m = service.metrics();
  EXPECT_EQ(m.submitted, 4u);
  EXPECT_EQ(m.rejected_busy, 1u);
  EXPECT_EQ(m.completed_ok, 3u);
  EXPECT_EQ(m.submitted, m.accounted());
  EXPECT_EQ(m.max_queue_depth, 2u);
  EXPECT_EQ(m.by_verb_outcome[static_cast<std::size_t>(Verb::field_stats)]
                             [static_cast<std::size_t>(
                                 StatusCode::server_busy)],
            1u);
}

// ---- deadlines ------------------------------------------------------------

TEST(SvcDeadline, ExpiredDeadlineReturnsDeadlineExceeded) {
  Service service(dataset());
  Client client(service, /*default_timeout_seconds=*/-1.0);
  const auto r = client.field_stats("U", 0);
  EXPECT_EQ(r.status().code, StatusCode::deadline_exceeded);
  const auto m = service.metrics();
  EXPECT_EQ(m.deadline_exceeded, 1u);
  EXPECT_EQ(m.submitted, m.accounted());
}

TEST(SvcDeadline, GenerousDeadlineStillCompletes) {
  Service service(dataset());
  Client client(service, /*default_timeout_seconds=*/60.0);
  const auto r = client.field_stats("U", 0);
  ASSERT_TRUE(r.ok()) << r.status().message;
}

// ---- shutdown -------------------------------------------------------------

TEST(SvcShutdown, DrainsQueuedRequestsThenRefusesNewOnes) {
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 0;
  config.before_execute = [&](const Request&) {
    entered.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Service service(dataset(), std::move(config));

  const auto query = [] {
    Request r;
    r.body = FieldStatsQ{"U", 0};
    return r;
  };
  auto f1 = service.submit(query());
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto f2 = service.submit(query());
  auto f3 = service.submit(query());

  // Shutdown must block until the in-flight and queued requests drain.
  std::thread closer([&] { service.shutdown(); });
  release.store(true);
  closer.join();
  EXPECT_EQ(f1.get().status.code, StatusCode::ok);
  EXPECT_EQ(f2.get().status.code, StatusCode::ok);
  EXPECT_EQ(f3.get().status.code, StatusCode::ok);

  // Post-shutdown submissions resolve immediately with ShuttingDown.
  const Response late = service.call(query());
  EXPECT_EQ(late.status.code, StatusCode::shutting_down);
  const auto m = service.metrics();
  EXPECT_EQ(m.completed_ok, 3u);
  EXPECT_EQ(m.rejected_shutdown, 1u);
  EXPECT_EQ(m.submitted, m.accounted());
}

TEST(SvcShutdown, ShutdownIsIdempotent) {
  Service service(dataset());
  service.shutdown();
  service.shutdown();  // second call is a no-op, not a crash
}

// ---- block cache ----------------------------------------------------------

std::vector<double> make_block(std::size_t doubles, double fill) {
  return std::vector<double>(doubles, fill);
}

TEST(SvcBlockCache, LruRespectsByteBudgetAndEvictsOldest) {
  // Each 128-double block is 1 KiB; budget holds exactly 4 in 1 shard.
  BlockCache cache(4096, /*shards=*/1);
  const auto key = [](int b) {
    return BlockKey{"d.bp", "U", 0, b};
  };
  for (int b = 0; b < 6; ++b) {
    cache.get_or_load(key(b), [&] { return make_block(128, b); });
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.misses, 6u);
  // Blocks 0 and 1 were evicted (LRU); 2..5 are still resident.
  bool hit = false;
  cache.get_or_load(key(5), [&] { return make_block(128, 5.0); }, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_load(key(0), [&] { return make_block(128, 0.0); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(SvcBlockCache, HitMovesEntryToFrontOfLru) {
  BlockCache cache(4096, 1);
  const auto key = [](int b) { return BlockKey{"d.bp", "U", 0, b}; };
  for (int b = 0; b < 4; ++b) {
    cache.get_or_load(key(b), [&] { return make_block(128, b); });
  }
  // Touch block 0, then insert two more: 1 and 2 evict, 0 survives.
  cache.get_or_load(key(0), [&] { return make_block(128, 0.0); });
  cache.get_or_load(key(4), [&] { return make_block(128, 4.0); });
  cache.get_or_load(key(5), [&] { return make_block(128, 5.0); });
  bool hit = false;
  cache.get_or_load(key(0), [&] { return make_block(128, 0.0); }, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_load(key(1), [&] { return make_block(128, 1.0); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(SvcBlockCache, OversizedBlockNeverExceedsBudget) {
  BlockCache cache(1024, 1);
  const auto big = cache.get_or_load(BlockKey{"d.bp", "U", 0, 0},
                                     [&] { return make_block(512, 1.0); });
  ASSERT_NE(big, nullptr);  // caller keeps the payload even if evicted
  EXPECT_EQ(big->size(), 512u);
  EXPECT_LE(cache.stats().bytes, cache.stats().capacity_bytes);
}

// ---- observability --------------------------------------------------------

TEST(SvcObservability, RequestsBecomeProfilerSpansWithWorkerLanes) {
  gs::prof::Profiler profiler;
  ServiceConfig config;
  config.threads = 2;
  config.profiler = &profiler;
  Service service(dataset(), std::move(config));
  Client client(service);
  for (std::int64_t s = 0; s < kSteps; ++s) {
    ASSERT_TRUE(client.field_stats("U", s).ok());
  }
  ASSERT_TRUE(client.histogram("V", 0, 8).ok());
  service.shutdown();

  const auto& spans = profiler.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& sp : spans) {
    EXPECT_NE(sp.tid, 0u) << "span must carry its worker thread lane";
    EXPECT_GE(sp.t1, sp.t0);
  }
  const std::string trace = profiler.chrome_trace_json();
  EXPECT_NE(trace.find("svc.FieldStats"), std::string::npos);
  EXPECT_NE(trace.find("svc.Histogram"), std::string::npos);
}

TEST(SvcObservability, MetricsReportAndJsonAreWellFormed) {
  ServiceConfig config;
  config.mmap_reads = false;  // assertions below count BlockCache hits
  Service service(dataset(), std::move(config));
  Client client(service);
  ASSERT_TRUE(client.field_stats("U", 0).ok());
  ASSERT_TRUE(client.field_stats("U", 0).ok());  // warm: cache hits
  const auto m = service.metrics();
  EXPECT_EQ(m.completed_ok, 2u);
  EXPECT_GT(m.latency_p99, 0.0);
  EXPECT_GE(m.latency_p99, m.latency_p50);
  EXPECT_GT(m.cache.hits, 0u);
  // Both answers scanned the whole L^3 field: io accounting counts
  // every fetch, cache hits included.
  EXPECT_EQ(m.bytes_scanned,
            2u * kL * kL * kL * sizeof(double));
  EXPECT_GT(m.exec_seconds_total, 0.0);
  const std::string report = m.report();
  EXPECT_NE(report.find("FieldStats"), std::string::npos);
  EXPECT_NE(report.find("scanned"), std::string::npos);
  const auto doc = m.to_json();
  EXPECT_EQ(doc.at("completed_ok").as_int(), 2);
  EXPECT_GT(doc.at("cache").at("hits").as_int(), 0);
  EXPECT_GT(doc.at("io").at("bytes_scanned").as_int(), 0);
  // The snapshot dump must parse back.
  const auto reparsed = gs::json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.at("submitted").as_int(), 2);
}

// ---- concurrency ----------------------------------------------------------

TEST(SvcConcurrency, ParallelClientsGetSerialAnswers) {
  ServiceConfig config;
  config.threads = 4;
  Service service(dataset(), std::move(config));
  const gs::bp::Reader reader(dataset());
  const Box3 box{{0, 4, 0}, {kL, kL - 8, kL}};
  std::vector<std::vector<double>> expected;
  for (std::int64_t s = 0; s < kSteps; ++s) {
    expected.push_back(reader.read("U", s, box));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Client client(service);
      for (int r = 0; r < 6; ++r) {
        const std::int64_t s = (t + r) % kSteps;
        const auto resp = client.read_box("U", s, box);
        if (!resp.ok() || resp.value().values != expected[s]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto m = service.metrics();
  EXPECT_EQ(m.completed_ok, 48u);
  EXPECT_EQ(m.submitted, m.accounted());
}

}  // namespace
