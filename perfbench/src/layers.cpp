#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <variant>

#include "analysis/analysis.h"
#include "bp/reader.h"
#include "bp/writer.h"
#include "common/checksum.h"
#include "core/reference.h"
#include "core/sim.h"
#include "core/stencil.h"
#include "mpi/runtime.h"
#include "par/par.h"
#include "par/pool.h"
#include "rpc/client.h"
#include "simd/simd.h"

namespace perfbench {

namespace {

constexpr double kConcurrentSeconds = 2.0;  ///< svc probe with 4 callers
constexpr std::size_t kPairedQueries = 32;  ///< same query down every path
constexpr int kPings = 200;
constexpr int kKernelReps = 7;
/// Minimum stencil traffic per cell (read u, v; write u_next, v_next),
/// computed, as in extension_simd_roofline.
constexpr double kStencilBytesPerCell = 4.0 * sizeof(double);

double us(double s) { return s * 1e6; }

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("layer probe: " + what);
}

void require_correct(const gs::svc::Response& response, const Query& q,
                     const char* path) {
  require(check(response, q.crc).correct,
          std::string("wrong or failed answer via ") + path + ": " +
              response.status.message);
}

/// Median of `reps` timed calls of fn (at least kKernelReps, more for
/// calls under 1 ms).
template <typename Fn>
double median_call(Tracer& tracer, const char* name, Fn&& fn) {
  SampleSet s;
  while (s.size() < kKernelReps || (s.sum() < 0.05 && s.size() < 2000)) {
    s.add(timed(tracer, name, 0, 0, fn));
  }
  return s.quantile(50.0).value;
}

// ---- svc, rpc and shard -----------------------------------------------------

/// svc::Service::call from kClients concurrent callers.
void probe_svc(const LayerInputs& in, gs::svc::Service& service,
               Tracer& tracer, Report& report) {
  std::mutex mu;
  SampleSet call, exec, wait;
  double bytes = 0.0, exec_total = 0.0, hits = 0.0, misses = 0.0;
  run_threads(kClients, [&](int t) {
    Rng rng(in.seed * 7919ull + static_cast<std::uint64_t>(t));
    SampleSet c, e, w;
    double b = 0.0, x = 0.0, h = 0.0, m = 0.0;
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < kConcurrentSeconds) {
      const Query& q = in.mix[rng.below(in.mix.size())];
      gs::svc::Response r;
      const double s = timed(tracer, "svc.call", 0, 0,
                             [&] { r = service.call(q.request); });
      require_correct(r, q, "svc::Service::call");
      c.add(s);
      e.add(r.exec_seconds);
      w.add(s - r.exec_seconds);
      b += static_cast<double>(r.bytes_scanned);
      x += r.exec_seconds;
      h += static_cast<double>(r.cache_hits);
      m += static_cast<double>(r.cache_misses);
    }
    const std::lock_guard<std::mutex> lock(mu);
    call.append(c);
    exec.append(e);
    wait.append(w);
    bytes += b;
    exec_total += x;
    hits += h;
    misses += m;
  });
  report.metric("svc.call_us_p50", us(median(call, "svc calls")), "us");
  report.metric("svc.exec_us_p50", us(median(exec, "svc exec")), "us");
  report.metric("svc.queue_wait_us_p50", us(median(wait, "svc waits")), "us");
  report.metric("svc.bytes_scanned_per_request",
                bytes / static_cast<double>(call.size()), "B/req");
  report.metric("svc.scan_gbps", exec_total > 0 ? bytes / exec_total / 1e9 : 0,
                "GB/s");
  report.metric("svc.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

/// One query down every path, one caller at a time, so each layer's
/// call time can be set against the layer beneath it.
void probe_paths(const LayerInputs& in, Daemon& direct, Cluster& cluster,
                 Tracer& tracer, Report& report) {
  gs::rpc::Client remote(direct.server->endpoint());
  gs::rpc::Client front(cluster.front->endpoint());
  std::vector<std::unique_ptr<gs::rpc::Client>> shard_clients;
  for (const auto& d : cluster.shards) {
    shard_clients.push_back(
        std::make_unique<gs::rpc::Client>(d->server->endpoint()));
  }

  // rpc::Client::ping on an idle connection.
  remote.ping();
  SampleSet ping;
  for (int i = 0; i < kPings; ++i) {
    ping.add(timed(tracer, "rpc.ping", 0, 0, [&] { remote.ping(); }));
  }
  report.metric("rpc.ping_us_p50", us(median(ping, "pings")), "us");

  // Connect every client before timing.
  for (auto& c : shard_clients) c->ping();
  front.ping();

  const gs::rpc::ServerStats server0 = direct.server->stats();
  const gs::shard::RouterStats router0 = cluster.router->stats();
  SampleSet inproc, remote_t, overhead, routed, self, sub, front_t;
  Rng rng(in.seed * 104729ull + 3);
  for (std::size_t i = 0; i < kPairedQueries; ++i) {
    const Query& q = in.mix[rng.below(in.mix.size())];
    const std::uint64_t request = i + 1;
    const std::uint64_t parent = tracer.reserve();
    const auto begin = Clock::now();
    gs::svc::Response r;

    const double t_svc = timed(tracer, "svc.call", parent, request,
                               [&] { r = direct.service->call(q.request); });
    require_correct(r, q, "svc::Service::call");
    // A shard bins a histogram only over an agreed range (the router's
    // second phase); take it from the full answer.
    gs::svc::QueryBody sub_body = q.request.body;
    if (auto* h = std::get_if<gs::svc::HistogramQ>(&sub_body)) {
      const auto& answer = std::get<gs::svc::HistogramR>(r.body);
      std::tie(h->lo, h->hi) =
          gs::analysis::histogram_range(answer.lo, answer.hi);
      h->has_range = true;
    }
    const double t_remote = timed(tracer, "rpc.call.direct", parent, request,
                                  [&] { r = remote.call(q.request); });
    require_correct(r, q, "rpc::Client::call to the daemon");
    const double t_router = timed(tracer, "shard.router.call", parent, request,
                                  [&] { r = cluster.router->call(q.request); });
    require_correct(r, q, "shard::Router::call");
    const double t_front = timed(tracer, "rpc.call.front", parent, request,
                                 [&] { r = front.call(q.request); });
    require_correct(r, q, "rpc::Client::call to the router");
    double slowest = 0.0;
    for (std::size_t s = 0; s < shard_clients.size(); ++s) {
      gs::svc::Request subq = q.request;
      subq.body = sub_body;
      subq.shard = gs::svc::ShardSelector{cluster.map->epoch(),
                                          cluster.map->ring_crc(),
                                          cluster.map->shards()[s].id};
      const double t = timed(tracer, "shard.subquery", parent, request,
                             [&] { r = shard_clients[s]->call(subq); });
      require(r.status.ok(), "shard sub-query failed: " + r.status.message);
      sub.add(t);
      slowest = std::max(slowest, t);
    }
    tracer.record_as(parent, "query", begin, Clock::now(), 0, request);

    inproc.add(t_svc);
    remote_t.add(t_remote);
    overhead.add(t_remote - t_svc);
    routed.add(t_router);
    self.add(t_router - slowest);
    front_t.add(t_front);
  }
  const gs::rpc::ServerStats server1 = direct.server->stats();
  const gs::shard::RouterStats router1 = cluster.router->stats();

  const double p50_inproc = median(inproc, "in-process calls");
  const double p50_remote = median(remote_t, "remote calls");
  report.metric("rpc.call_overhead_us_p50", us(median(overhead, "overheads")),
                "us");
  report.metric("rpc.remote_to_inproc_p50_ratio", p50_remote / p50_inproc,
                "ratio");
  const double responses =
      static_cast<double>(server1.responses - server0.responses);
  report.metric("rpc.bytes_per_request",
                static_cast<double>(server1.bytes_in + server1.bytes_out -
                                    server0.bytes_in - server0.bytes_out) /
                    responses,
                "B/req");
  report.metric("shard.router_call_us_p50", us(median(routed, "router calls")),
                "us");
  report.metric("shard.router_self_us_p50", us(median(self, "router self")),
                "us");
  report.metric("shard.subquery_us_p50", us(median(sub, "sub-queries")), "us");
  report.metric("shard.subqueries_per_request",
                static_cast<double>(router1.subqueries - router0.subqueries) /
                    static_cast<double>(router1.queries - router0.queries),
                "count");
  report.metric("shard.routed_to_direct_p50_ratio",
                median(front_t, "routed calls") / p50_remote, "ratio");
  report.metric("shard.subquery_errors",
                static_cast<double>(router1.subquery_errors), "count");
  report.metric("shard.failovers", static_cast<double>(router1.failovers),
                "count");
}

// ---- bp reads, analysis kernels, crc ---------------------------------------

void probe_reads(const LayerInputs& in, Tracer& tracer, Report& report) {
  const std::string var = "U";
  const std::int64_t step = 0;
  double mapped_bytes = 0.0, first_touch = 0.0;
  SampleSet warm;
  for (int rep = 0; rep < 3; ++rep) {
    const gs::bp::Reader reader(in.dataset);
    const std::size_t n = reader.blocks(var, step).size();
    for (std::size_t b = 0; b < n; ++b) {
      bool first = false;
      std::optional<gs::bp::Reader::BlockView> view;
      first_touch += timed(tracer, "bp.map_block.first", 0, 0, [&] {
        view = reader.try_map_block(var, step, b, &first);
      });
      require(view.has_value() && first, "block not mappable on first touch");
      mapped_bytes += static_cast<double>(view->data.size_bytes());
      for (int i = 0; i < 8; ++i) {
        warm.add(timed(tracer, "bp.map_block.warm", 0, 0, [&] {
          view = reader.try_map_block(var, step, b, &first);
        }));
        require(view.has_value() && !first, "warm map touched again");
      }
    }
  }
  report.metric("bp.map_first_touch_gbps", mapped_bytes / first_touch / 1e9,
                "GB/s");
  report.metric("bp.map_warm_us", us(median(warm, "warm maps")), "us");

  const gs::bp::Reader reader(in.dataset);
  const std::size_t n = reader.blocks(var, step).size();
  double read_bytes = 0.0, read_time = 0.0;
  std::vector<double> block;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t b = 0; b < n; ++b) {
      read_time += timed(tracer, "bp.read_block", 0, 0, [&] {
        block = reader.read_block(var, step, b);
      });
      read_bytes += static_cast<double>(block.size() * sizeof(double));
    }
  }
  report.metric("bp.read_block_gbps", read_bytes / read_time / 1e9, "GB/s");

  block = reader.read_block(var, step, 0);
  const double cells = static_cast<double>(block.size());
  const std::span<const double> data(block);
  gs::analysis::FieldStats stats{};
  const double t_stats = median_call(tracer, "analysis.compute_stats", [&] {
    stats = gs::analysis::compute_stats(data);
  });
  require(stats.count == block.size(), "compute_stats miscounted the block");
  report.metric("analysis.stats_ns_per_cell", t_stats / cells * 1e9,
                "ns/cell");
  std::size_t binned = 0;
  const double t_hist = median_call(tracer, "analysis.field_histogram", [&] {
    binned = gs::analysis::field_histogram(data, 64).total();
  });
  require(binned == block.size(), "field_histogram miscounted the block");
  report.metric("analysis.histogram_ns_per_cell", t_hist / cells * 1e9,
                "ns/cell");
  std::uint32_t crc = 0;
  const double t_crc = median_call(tracer, "common.crc32", [&] {
    crc = gs::crc32(std::as_bytes(data));
  });
  require(crc == reader.blocks(var, step)[0].crc, "crc32 disagrees with index");
  report.metric("common.crc32_gbps", cells * sizeof(double) / t_crc / 1e9,
                "GB/s");
}

// ---- producer: core, simd, mpi, bp writes ----------------------------------

struct ProducerTimes {
  std::mutex mu;
  SampleSet step, end_step, write_gbps;
  double close = 0.0;
};

/// The Workflow's loop written out with a timed call at each layer.
void probe_producer(const LayerInputs& in, Tracer& tracer, Report& report,
                    double* step_p50) {
  gs::Settings s = in.producer;
  s.output = in.dir + "/producer-probe.bp";
  std::filesystem::remove_all(s.output);
  ProducerTimes times;
  gs::mpi::run(in.ranks, [&](gs::mpi::Comm& world) {
    gs::core::Simulation sim(s, world);
    gs::bp::Writer writer(s.output, world, static_cast<int>(s.ranks_per_node));
    const gs::Index3 shape{s.L, s.L, s.L};
    SampleSet step, end_step, gbps;
    for (std::int64_t i = 1; i <= s.steps; ++i) {
      step.add(timed(tracer, "core.step", 0, 0, [&] { sim.step(); }));
      if (i % s.plotgap != 0) continue;
      sim.sync_host();
      const std::vector<double> u = sim.u_host().interior_copy();
      const std::vector<double> v = sim.v_host().interior_copy();
      const auto a = Clock::now();
      writer.begin_step();
      writer.put("U", shape, sim.local_box(), u);
      writer.put("V", shape, sim.local_box(), v);
      writer.put_scalar("step", i);
      end_step.add(timed(tracer, "bp.end_step", 0, 0, [&] { writer.end_step(); }));
      const double t = seconds_between(a, Clock::now());
      tracer.record("bp.write_step", a, Clock::now(), 0, 0);
      gbps.add(static_cast<double>((u.size() + v.size()) * sizeof(double)) /
               t / 1e9);
    }
    const double t_close =
        timed(tracer, "bp.close", 0, 0, [&] { writer.close(); });
    const std::lock_guard<std::mutex> lock(times.mu);
    times.step.append(step);
    times.end_step.append(end_step);
    times.write_gbps.append(gbps);
    times.close = std::max(times.close, t_close);
  });
  require(gs::bp::Reader(s.output).verify().clean(),
          "producer probe output failed verify");
  std::filesystem::remove_all(s.output);
  *step_p50 = median(times.step, "steps");
  report.metric("core.step_ms_p50", *step_p50 * 1e3, "ms");
  // Few output steps: the plain median of every rank's calls.
  report.metric("bp.end_step_ms_p50",
                times.end_step.quantile(50.0).value * 1e3, "ms");
  report.metric("bp.write_gbps", times.write_gbps.quantile(50.0).value,
                "GB/s");
  report.metric("bp.close_ms", times.close * 1e3, "ms");
}

/// grayscott_tile through par::parallel_for_3d on every rank's box at
/// once, as in a step; returns {best, median} sweep seconds.
std::pair<double, double> stencil_sweep(const LayerInputs& in,
                                        Tracer& tracer) {
  SampleSet sweeps;
  gs::mpi::run(in.ranks, [&](gs::mpi::Comm& world) {
    gs::core::Simulation sim(in.producer, world);
    const gs::Box3 local = sim.local_box();
    gs::Field3 u(local.count), v(local.count), un(local.count),
        vn(local.count);
    gs::core::initialize_fields(u, v, local, in.producer.L);
    gs::core::apply_periodic_ghosts(u);
    gs::core::apply_periodic_ghosts(v);
    gs::core::StencilArgs sa;
    sa.u = u.data().data();
    sa.v = v.data().data();
    sa.u_next = un.data().data();
    sa.v_next = vn.data().data();
    sa.alloc = u.alloc_extent();
    sa.interior = u.interior();
    sa.local = local;
    sa.global = {in.producer.L, in.producer.L, in.producer.L};
    sa.params = gs::core::GsParams{in.producer.Du, in.producer.Dv,
                                   in.producer.F,  in.producer.k,
                                   in.producer.dt, in.producer.noise};
    sa.seed = in.producer.seed;
    sa.tile_j = in.producer.tile_j;
    for (int rep = 0; rep < kKernelReps; ++rep) {
      sa.step = rep;
      world.barrier();
      const auto a = Clock::now();
      gs::par::parallel_for_3d(u.interior(), [&](const gs::Box3& tile) {
        gs::core::grayscott_tile<gs::simd::kNativeWidth>(
            sa, tile.start.k, tile.start.k + tile.count.k);
      });
      world.barrier();
      if (world.rank() == 0) {
        sweeps.add(seconds_between(a, Clock::now()));
        tracer.record("core.stencil_sweep", a, Clock::now(), 0, 0);
      }
    }
  });
  const auto& v = sweeps.values();
  return {*std::min_element(v.begin(), v.end()), sweeps.quantile(50.0).value};
}

/// STREAM triad over the gs::par pool on every core: the same-run
/// bandwidth ceiling.
double triad_gbps(Tracer& tracer) {
  // The producer probes' Simulations sized the pool to one lane.
  gs::par::set_global_lanes(gs::par::default_lanes());
  constexpr std::int64_t n = 1 << 22;  // 3 arrays x 32 MiB
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e300;
  for (int rep = 0; rep < kKernelReps; ++rep) {
    best = std::min(best, timed(tracer, "simd.triad", 0, 0, [&] {
      gs::par::parallel_for_tiles(
          n, [&](std::int64_t lo, std::int64_t hi, std::int64_t) {
            for (std::int64_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
          });
    }));
  }
  require(a[n - 1] == 7.0, "triad result");
  return static_cast<double>(n) * 24.0 / best / 1e9;
}

}  // namespace

void probe_layers(const LayerInputs& in, Tracer& tracer, Report& report) {
  std::unique_ptr<Daemon> own_direct;
  std::unique_ptr<Cluster> own_cluster;
  Daemon* direct = in.direct;
  Cluster* cluster = in.cluster;
  if (direct == nullptr) {
    own_direct = std::make_unique<Daemon>(in.dataset, "127.0.0.1:0");
    direct = own_direct.get();
  }
  if (cluster == nullptr) {
    own_cluster = std::make_unique<Cluster>(in.dataset, in.dir);
    cluster = own_cluster.get();
  }
  probe_paths(in, *direct, *cluster, tracer, report);
  probe_svc(in, *direct->service, tracer, report);
  own_cluster.reset();
  own_direct.reset();

  probe_reads(in, tracer, report);

  double step_p50 = 0.0;
  probe_producer(in, tracer, report, &step_p50);
  const auto [best_sweep, median_sweep] = stencil_sweep(in, tracer);
  const double cells = static_cast<double>(in.producer.L) *
                       static_cast<double>(in.producer.L) *
                       static_cast<double>(in.producer.L);
  const double stencil = cells * kStencilBytesPerCell / best_sweep / 1e9;
  const double triad = triad_gbps(tracer);
  report.metric("core.stencil_gbps", stencil, "GB/s");
  report.metric("simd.triad_gbps", triad, "GB/s");
  report.metric("core.stencil_fraction_of_triad", stencil / triad, "ratio");
  report.metric("mpi.halo_ms_p50", (step_p50 - median_sweep) * 1e3, "ms");
}

}  // namespace perfbench
