// Persistent worker-pool executor for the gs::par engine.
//
// One process-wide pool (global_pool()) backs every parallel region in the
// codebase: kernel tiles, halo packing, analysis reductions, BP block
// compression. Workers are spawned once and parked on a condition variable
// between regions, so a region costs a wakeup — not a thread spawn.
//
// Execution model: run(n_tasks, fn) publishes a task set; the calling
// thread and the workers grab task indices from a shared atomic counter
// until the set is drained. Task->data mapping is decided by the CALLER
// (fixed tiling), so which lane runs which task never affects results —
// that is what makes every gs::par algorithm bitwise deterministic for any
// pool size, including 1.
//
// Re-entrancy: run() called from inside a task (nested parallelism) or
// from a pool of size 1 executes inline on the calling thread. Concurrent
// run() calls from independent threads (e.g. gs::svc workers sharing the
// pool) are serialized, one region at a time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gs::par {

class ThreadPool {
 public:
  /// `lanes` = total execution lanes, caller included; a pool of n lanes
  /// spawns n-1 worker threads. 0 is clamped to 1 (inline execution).
  explicit ThreadPool(std::size_t lanes = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  std::size_t lanes() const { return lanes_; }

  /// Joins the current workers and respawns at the new lane count.
  /// Safe to call concurrently with run() from other threads (waits for
  /// the active region to finish). No-op if the size is unchanged.
  void resize(std::size_t lanes);

  /// Executes fn(0) ... fn(n_tasks-1) across all lanes and returns when
  /// every task has finished. fn must be safe to invoke concurrently for
  /// DISTINCT task indices; each index runs at most once. If a task
  /// throws, on any lane, the tasks not yet started are skipped, the
  /// region drains, and run() rethrows the first exception on the caller;
  /// the pool stays usable for the next region.
  void run(std::size_t n_tasks, const std::function<void(std::size_t)>& fn);

  /// True while the calling thread is executing a task of some region
  /// (used by run() to fall back to inline execution for nested regions).
  static bool in_region();

 private:
  struct Region {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n_tasks = 0;
    std::atomic<std::size_t> next{0};     ///< next task index to grab
    std::atomic<std::size_t> pending{0};  ///< tasks not yet finished
    int active_workers = 0;               ///< workers inside work_on (mu_)
    std::atomic<bool> failed{false};      ///< a task threw: skip the rest
    std::exception_ptr error;             ///< the first throw (mu_)
  };

  void worker_main();
  void work_on(Region& r);
  void spawn_workers();
  void join_workers();

  std::size_t lanes_ = 1;

  /// Serializes regions: one run() owns the workers at a time.
  std::mutex region_mu_;

  /// Guards region_/epoch_/stop_/active_workers and backs both cvs.
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new epoch
  std::condition_variable done_cv_;  ///< run() waits for drain
  Region* region_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool shared by every subsystem. Created on first use
/// with default_lanes() lanes; resized explicitly via set_global_lanes()
/// or configure_global_pool().
ThreadPool& global_pool();

/// Default lane count: $GS_NUM_THREADS if set (clamped to >= 1), else
/// std::thread::hardware_concurrency().
std::size_t default_lanes();

/// Resizes the global pool to exactly `lanes` (tests, benches).
void set_global_lanes(std::size_t lanes);

/// Applies a Settings-style thread knob: $GS_NUM_THREADS wins if set;
/// otherwise `settings_threads` > 0 sets the size; otherwise the pool is
/// left at its current size (created at default_lanes() if it does not
/// exist yet). Called by Simulation/Workflow construction.
void configure_global_pool(std::int64_t settings_threads);

}  // namespace gs::par
