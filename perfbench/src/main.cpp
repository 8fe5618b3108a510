// gsbench — the repository benchmark.
//
//   gsbench --workload scan|interactive --seed N --seconds S
//           --trace 0|1 --work DIR --trace-out FILE
//
// Prints a table of metrics and, as its last line, one JSON object with
// "correct", "attempted", "failed" and "metrics". --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with spans
// recorded, then the per-layer probes, and writes a Chrome trace.
// Exits 1 on a wrong answer or any error.
//
//   gsbench --job scan|interactive|produce --output PATH --seed N --verify 0|1
//
// runs one producer job (a workload's dataset writer, or the produce job
// that workflow_s times) and prints its result line (see job.h); the
// benchmark starts itself this way for every producer job.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "job.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gsbench --workload scan|interactive --seed N "
               "--seconds S --trace 0|1 --work DIR --trace-out FILE\n"
               "       gsbench --job WORKLOAD --output PATH --seed N "
               "--verify 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  perfbench::JobSpec job;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work") {
      opt.work = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--job") {
      job.workload = value;
    } else if (key == "--output") {
      job.output = value;
    } else if (key == "--verify") {
      job.verify = value == "1";
    } else {
      return usage();
    }
  }
  if (!job.workload.empty()) {
    if (argc % 2 == 0 || job.output.empty()) return usage();
    job.seed = opt.seed;
    try {
      return perfbench::job_main(job);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gsbench --job: %s\n", e.what());
      return 1;
    }
  }
  if (argc % 2 == 0 || opt.work.empty() || trace_out.empty() ||
      !(opt.seconds > 0)) {
    return usage();
  }

  perfbench::Report report;
  try {
    std::filesystem::remove_all(opt.work);
    std::filesystem::create_directories(opt.work);
    std::printf("%s seed %llu, %.0f s, trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    if (opt.workload == "scan") {
      perfbench::run_serving(opt, perfbench::Mix::scan, report, trace_out);
    } else if (opt.workload == "interactive") {
      perfbench::run_serving(opt, perfbench::Mix::interactive, report,
                             trace_out);
    } else {
      return usage();
    }
    std::filesystem::remove_all(opt.work);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsbench: %s\n", e.what());
    std::filesystem::remove_all(opt.work);
    return 1;
  }
  std::printf("%s", report.table().c_str());
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
