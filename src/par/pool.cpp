#include "par/pool.h"

#include <cstdlib>
#include <string>

namespace gs::par {

namespace {

thread_local bool tl_in_region = false;

}  // namespace

bool ThreadPool::in_region() { return tl_in_region; }

ThreadPool::ThreadPool(std::size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {
  spawn_workers();
}

ThreadPool::~ThreadPool() { join_workers(); }

void ThreadPool::spawn_workers() {
  for (std::size_t w = 1; w < lanes_; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void ThreadPool::join_workers() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = false;
  }
}

void ThreadPool::resize(std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  // Waits for any in-flight region; new regions queue behind us.
  const std::lock_guard<std::mutex> rg(region_mu_);
  if (lanes == lanes_) return;
  join_workers();
  lanes_ = lanes;
  spawn_workers();
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    Region* r = region_;
    if (r == nullptr) continue;  // woke after the region was retired
    ++r->active_workers;
    lk.unlock();
    work_on(*r);
    lk.lock();
    if (--r->active_workers == 0) done_cv_.notify_all();
  }
}

void ThreadPool::work_on(Region& r) {
  tl_in_region = true;
  for (;;) {
    const std::size_t i = r.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= r.n_tasks) break;
    if (!r.failed.load(std::memory_order_relaxed)) {
      try {
        (*r.fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(mu_);
        if (!r.error) r.error = std::current_exception();
        r.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (r.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task done: wake the region owner. Lock so the notify cannot
      // slip between its predicate check and its wait.
      const std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  tl_in_region = false;
}

void ThreadPool::run(std::size_t n_tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  if (lanes_ <= 1 || n_tasks == 1 || tl_in_region) {
    // Inline: single-lane pools, trivial regions, and nested parallelism
    // all reduce to the serial order — results are identical by design.
    struct Enter {
      bool outer = !tl_in_region;
      Enter() { tl_in_region = true; }
      ~Enter() {
        if (outer) tl_in_region = false;  // also when fn throws
      }
    } enter;
    for (std::size_t i = 0; i < n_tasks; ++i) fn(i);
    return;
  }

  const std::lock_guard<std::mutex> rg(region_mu_);
  Region r;
  r.fn = &fn;
  r.n_tasks = n_tasks;
  r.pending.store(n_tasks, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lk(mu_);
    region_ = &r;
    ++epoch_;
  }
  work_cv_.notify_all();
  work_on(r);

  // All tasks done AND no worker still holds a reference to r (a late
  // worker may grab the region only to find the task counter drained).
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return r.pending.load(std::memory_order_acquire) == 0 &&
           r.active_workers == 0;
  });
  region_ = nullptr;
  if (r.error) std::rethrow_exception(r.error);
}

std::size_t default_lanes() {
  if (const char* env = std::getenv("GS_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    return v >= 1 ? static_cast<std::size_t>(v) : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_lanes());
  return pool;
}

void set_global_lanes(std::size_t lanes) { global_pool().resize(lanes); }

void configure_global_pool(std::int64_t settings_threads) {
  if (std::getenv("GS_NUM_THREADS") != nullptr) {
    global_pool().resize(default_lanes());  // env always wins
  } else if (settings_threads > 0) {
    global_pool().resize(static_cast<std::size_t>(settings_threads));
  } else {
    global_pool();  // auto: create at default_lanes(), keep current size
  }
}

}  // namespace gs::par
