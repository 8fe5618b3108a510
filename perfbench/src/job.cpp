#include "job.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <vector>

#include "bp/reader.h"
#include "common/error.h"
#include "core/workflow.h"
#include "fixture.h"
#include "mpi/runtime.h"

extern char** environ;

namespace perfbench {

namespace {

std::int64_t ticks(Clock::time_point t) {
  return static_cast<std::int64_t>(t.time_since_epoch().count());
}

Clock::time_point from_ticks(std::int64_t n) {
  return Clock::time_point(Clock::duration(n));
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

gs::Settings job_settings(const JobSpec& spec, int* ranks) {
  if (spec.workload == "scan") {
    *ranks = kScanRanks;
    return scan_settings(spec.output, spec.seed);
  }
  if (spec.workload == "interactive") {
    *ranks = kInteractiveRanks;
    return interactive_settings(spec.output, spec.seed);
  }
  if (spec.workload == "produce") {
    *ranks = kProduceRanks;
    return produce_settings(spec.output, spec.seed);
  }
  throw gs::Error("unknown job workload: " + spec.workload);
}

}  // namespace

int job_main(const JobSpec& spec) {
  int ranks = 0;
  const gs::Settings settings = job_settings(spec, &ranks);
  std::filesystem::remove_all(settings.output);
  Job job;
  job.correct = true;
  std::mutex mu;
  gs::mpi::run(ranks, [&](gs::mpi::Comm& world) {
    world.barrier();
    const auto a = Clock::now();
    gs::core::Workflow workflow(settings, world);
    const auto b = Clock::now();
    world.barrier();
    const auto c = Clock::now();
    workflow.run();
    const auto d = Clock::now();

    bool ok = true;
    if (spec.verify) {
      world.barrier();  // run() has committed the dataset on every rank
      auto& sim = workflow.simulation();
      sim.sync_host();
      const gs::bp::Reader reader(settings.output);
      const std::int64_t last = reader.n_steps() - 1;
      ok = last >= 0 &&
           reader.read_scalar("step", last) == settings.steps &&
           same_bits(reader.read("U", last, sim.local_box()),
                     sim.u_host().interior_copy()) &&
           same_bits(reader.read("V", last, sim.local_box()),
                     sim.v_host().interior_copy());
      if (world.rank() == 0) ok = ok && reader.verify().clean();
    }
    const auto e = Clock::now();

    const std::lock_guard<std::mutex> lock(mu);
    job.ctor = std::max(job.ctor, seconds_between(a, b));
    job.run = std::max(job.run, seconds_between(c, d));
    job.correct = job.correct && ok;
    if (world.rank() == 0) {
      job.ctor_start = a;
      job.ctor_end = b;
      job.run_start = c;
      job.run_end = d;
      job.verify_end = e;
    }
  });
  std::printf("job %d %.17g %.17g %" PRId64 " %" PRId64 " %" PRId64
              " %" PRId64 " %" PRId64 "\n",
              job.correct ? 1 : 0, job.ctor, job.run, ticks(job.ctor_start),
              ticks(job.ctor_end), ticks(job.run_start), ticks(job.run_end),
              ticks(job.verify_end));
  std::fflush(stdout);
  return job.correct ? 0 : 1;
}

Job spawn_job(const JobSpec& spec) {
  const std::string seed = std::to_string(spec.seed);
  std::vector<std::string> args = {"gsbench",  "--job",  spec.workload,
                                   "--output", spec.output, "--seed",
                                   seed,       "--verify", spec.verify ? "1" : "0"};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw gs::Error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw gs::Error(std::string("cannot start a job process: ") +
                    std::strerror(rc));
  }

  std::string out;
  char buf[512];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) != 0) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  Job job;
  int correct = 0;
  std::int64_t t[5] = {};
  const std::size_t line = out.rfind("job ");
  if (line == std::string::npos ||
      std::sscanf(out.c_str() + line,
                  "job %d %lf %lf %" SCNd64 " %" SCNd64 " %" SCNd64
                  " %" SCNd64 " %" SCNd64,
                  &correct, &job.ctor, &job.run, &t[0], &t[1], &t[2], &t[3],
                  &t[4]) != 8) {
    return job;  // crashed or printed no result: not correct
  }
  job.correct = correct == 1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  job.ctor_start = from_ticks(t[0]);
  job.ctor_end = from_ticks(t[1]);
  job.run_start = from_ticks(t[2]);
  job.run_end = from_ticks(t[3]);
  job.verify_end = from_ticks(t[4]);
  return job;
}

}  // namespace perfbench
