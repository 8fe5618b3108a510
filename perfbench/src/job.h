// Producer jobs in child processes. The gray_scott_workflow program runs
// one Workflow per process, so every job here starts in a fresh process
// with a cold heap, as the program does, and no job inherits the pages
// an earlier job freed.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// A producer job: the "scan" or "interactive" dataset writer, or the
/// "produce" job that workflow_s times (settings in fixture.h), writing
/// to `output`.
struct JobSpec {
  std::string workload;
  std::string output;
  std::uint64_t seed = 1;
  /// Read the dataset back: Reader::verify() clean, and each rank's
  /// final-step box equal to its simulation state bit for bit.
  bool verify = false;
};

/// Timings of one job. The durations are the slowest rank's; the time
/// points are rank 0's (steady_clock is system-wide, so they are
/// comparable across processes).
struct Job {
  double ctor = 0.0;  ///< the collective Workflow constructor
  double run = 0.0;   ///< Workflow::run
  bool correct = false;  ///< ran to the end and, with verify, read back equal
  Clock::time_point ctor_start, ctor_end, run_start, run_end, verify_end;
};

/// Runs the job in a child process of this executable and waits for it.
/// A child that crashes or prints no result gives a Job that is not
/// correct.
Job spawn_job(const JobSpec& spec);

/// The child's side: runs the job and prints its result line. Returns
/// the child's exit code (0 when correct).
int job_main(const JobSpec& spec);

}  // namespace perfbench
