// scan and interactive: closed-loop analyst traffic against a daemon or a
// routed cluster over loopback TCP.
#include <cstdio>
#include <filesystem>

#include "common/error.h"
#include "job.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Requests in a run's pool; the client threads draw from it.
constexpr std::size_t kPoolSize = 240;
/// Untimed requests per client before the timed phase.
constexpr int kWarmup = 4;
/// Produce jobs an untraced run times for workflow_s: at least
/// kMinWorkflowJobs and until kWorkflowSeconds are spent.
constexpr int kMinWorkflowJobs = 21;
constexpr double kWorkflowSeconds = 10.0;

/// Everything a timed phase needs: the dataset, the ground-truth pool
/// and the serving deployment.
struct Setup {
  std::string dir;
  gs::Settings settings;
  std::vector<Query> pool;
  std::unique_ptr<Daemon> daemon;    ///< scan
  std::unique_ptr<Cluster> cluster;  ///< interactive
  gs::rpc::Endpoint endpoint() const {
    return daemon ? daemon->server->endpoint() : cluster->front->endpoint();
  }
  ~Setup() {
    cluster.reset();
    daemon.reset();
    std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<Setup> set_up(const Options& opt, Mix mix, int rep) {
  auto s = std::make_unique<Setup>();
  s->dir = opt.work + "/setup" + std::to_string(rep);
  std::filesystem::create_directories(s->dir);
  const std::string dataset = s->dir + "/data.bp";
  if (mix == Mix::scan) {
    s->settings = scan_settings(dataset, opt.seed);
  } else {
    s->settings = interactive_settings(dataset, opt.seed);
  }
  if (!spawn_job({mix == Mix::scan ? "scan" : "interactive", dataset,
                  opt.seed, false})
           .correct) {
    throw gs::Error("the dataset-writing job failed");
  }
  s->pool = ground_truth(
      dataset, make_requests(mix, opt.seed, kPoolSize, s->settings));
  if (mix == Mix::scan) {
    s->daemon = std::make_unique<Daemon>(dataset, "127.0.0.1:0");
  } else {
    s->cluster = std::make_unique<Cluster>(dataset, s->dir);
  }
  return s;
}

void count(const LoopResult& r, Report& report) {
  report.attempted += r.attempted;
  report.failed += r.failed;
  if (r.wrong != 0) report.correct = false;
  std::printf("  %llu attempted, %llu correct, %llu wrong, failed_ratio %.6f\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.correct),
              static_cast<unsigned long long>(r.wrong),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
  if (r.block_misses + r.block_hits != 0) {  // routed answers carry none
    std::printf("  timed block fetches: %llu first touches or cache misses, "
                "%llu warm\n",
                static_cast<unsigned long long>(r.block_misses),
                static_cast<unsigned long long>(r.block_hits));
  }
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double throughput_rps = 0.0;
  SampleSet latency;  ///< seconds
  /// The produce jobs' Workflow::run, seconds. workflow_s is the fastest:
  /// a job is fixed work, and what a shared host adds to it only makes it
  /// slower, so the minimum is the steadiest estimate of its cost (Chen
  /// and Revels, "Robust benchmarking in noisy environments",
  /// arXiv:1608.04295, the method of Julia's BenchmarkTools).
  SampleSet workflow;
  SampleSet setup;  ///< seconds; setup_s is the median
  double peak_rss_mb = 0.0;  ///< of the process that hosts the daemons
};

void report_end_to_end(const EndToEnd& e, Report& report) {
  const Quantile p50 = e.latency.quantile(50.0);
  const Quantile tail = e.latency.supported_quantile(99.0);
  std::printf("  latency samples %zu: p50 %.3f ms, p%.2f %.3f ms "
              "(%zu beyond)\n",
              p50.count, p50.value * 1e3, tail.p, tail.value * 1e3,
              tail.beyond);
  report.metric("throughput_rps", e.throughput_rps, "1/s");
  report.metric("latency_p50_ms", median(e.latency, "latencies") * 1e3, "ms");
  report.metric("latency_p99_ms", tail.value * 1e3, "ms");
  report.metric("workflow_s", e.workflow.min(), "s");
  report.metric("setup_s", e.setup.quantile(50.0).value, "s");
  report.metric("peak_rss_mb", e.peak_rss_mb, "MB");
}

/// Median latency of the traced phase minus that of the untraced phase.
void report_trace_overhead(const SampleSet& untraced, const SampleSet& traced,
                           Report& report) {
  const double u = untraced.quantile(50.0).value;
  const double t = traced.quantile(50.0).value;
  std::printf("  tracing overhead: p50 %.4f ms untraced (n=%zu), %.4f ms "
              "traced (n=%zu)\n",
              u * 1e3, untraced.size(), t * 1e3, traced.size());
  report.metric("trace.p50_overhead_ms", (t - u) * 1e3, "ms");
}

/// Times the set-ups and the produce jobs of an untraced run, in rounds
/// of: the previous set-up's teardown (untimed), a produce job, a timed
/// set-up. A teardown idles about 0.4 s while the servers' poll loops
/// notice it, and on a shared 4-vCPU VM threads woke up slowly after such
/// pauses: interactive's set-up, mostly thread wake-ups, took about 1.7x
/// as long after a pause as after busy work. The job before each set-up puts every
/// set-up in the same state. Once there are set-ups enough, rounds run
/// jobs only. Returns the last set-up, which serves the timed phase.
std::unique_ptr<Setup> time_setups_and_jobs(const Options& opt, Mix mix,
                                            EndToEnd& e) {
  const JobSpec produce{"produce", opt.work + "/produce.bp", opt.seed, true};
  std::unique_ptr<Setup> setup;
  double job_seconds = 0.0;
  for (;;) {
    const bool more_setups =
        e.setup.size() < kMinSetups ||
        (e.setup.sum() < kSetupSeconds && e.setup.size() < kMaxSetups);
    const bool more_jobs = e.workflow.size() < kMinWorkflowJobs ||
                           job_seconds < kWorkflowSeconds;
    if (!more_setups && !more_jobs) break;
    if (more_setups) setup.reset();
    const Job job = spawn_job(produce);
    if (!job.correct) throw gs::Error("a produce job failed its check");
    e.workflow.add(job.run);
    job_seconds += job.ctor + job.run;
    if (more_setups) {
      const auto a = Clock::now();
      setup = set_up(opt, mix, static_cast<int>(e.setup.size()));
      e.setup.add(seconds_between(a, Clock::now()));
    }
  }
  std::filesystem::remove_all(produce.output);
  std::printf("  %zu set-ups (p50 %.4f s), %zu produce jobs (Workflow::run "
              "min %.4f s, p50 %.4f s)\n",
              e.setup.size(), e.setup.quantile(50.0).value,
              e.workflow.size(), e.workflow.min(),
              e.workflow.quantile(50.0).value);
  return setup;
}

}  // namespace

void run_serving(const Options& opt, Mix mix, Report& report,
                 const std::string& trace_path) {
  // workflow_s is the produce job's Workflow::run in every workload. The
  // serving datasets' own producers are too short to time steadily on a
  // shared host: interactive's takes about 30 ms, mostly thread wake-ups.
  EndToEnd e;
  std::unique_ptr<Setup> setup =
      opt.trace ? set_up(opt, mix, 0) : time_setups_and_jobs(opt, mix, e);

  if (!opt.trace) {
    const LoopResult r = closed_loop(setup->endpoint(), setup->pool, opt.seed,
                                     opt.seconds, kWarmup, nullptr);
    count(r, report);
    e.throughput_rps = static_cast<double>(r.correct) / r.elapsed;
    e.latency = r.latency;
    e.peak_rss_mb = peak_rss_mb();  // the daemons run in this process
    report_end_to_end(e, report);
    return;
  }

  Tracer tracer(true);
  const LoopResult untraced = closed_loop(
      setup->endpoint(), setup->pool, opt.seed, opt.seconds / 2, kWarmup,
      nullptr);
  const LoopResult traced = closed_loop(setup->endpoint(), setup->pool,
                                        opt.seed, opt.seconds / 2, 0,
                                        &tracer);
  count(untraced, report);
  count(traced, report);
  report_trace_overhead(untraced.latency, traced.latency, report);

  LayerInputs in;
  in.dataset = setup->settings.output;
  in.mix = setup->pool;
  in.producer = produce_settings(opt.work + "/produce.bp", opt.seed);
  in.ranks = kProduceRanks;
  in.dir = setup->dir;
  in.seed = opt.seed;
  in.direct = setup->daemon.get();
  in.cluster = setup->cluster.get();
  probe_layers(in, tracer, report);
  tracer.write_chrome(trace_path);
  std::printf("  %zu spans written to %s\n", tracer.size(), trace_path.c_str());
}

}  // namespace perfbench
