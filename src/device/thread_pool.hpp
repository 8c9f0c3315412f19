// Persistent worker pool.
//
// This is the execution substrate standing in for the GPU: DSXplore's CUDA
// kernels are expressed as per-thread work functions over a flat index space
// (see device/launch.hpp), and the pool executes those index spaces with
// static chunking, one chunk per pool thread, like an OpenMP `parallel for`.
// The chunk boundaries are fixed by the range and the pool size; which
// thread runs a chunk is not. The pool's threads, the launching thread
// included, claim chunks from a shared counter, so a launch never waits
// for a worker that has not woken up yet - on a busy host the launching
// thread simply runs that worker's chunk itself.
//
// A pool is one device with one command queue: run_chunks serializes
// concurrent launches on a per-pool launch mutex, so any number of threads
// (batchers, compiles, trainers) may launch onto the same pool without a
// lock of their own. A launch issued from inside a chunk of the same pool
// (a nested launch) runs inline on that thread instead of queueing behind
// the launch that contains it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dsx::device {

namespace detail {
/// Process-wide switch for pool busy/idle accounting. Off by default so the
/// steady-state cost of every accounting site is one relaxed load; the
/// profiler (dsx::obs::prof) flips it on for the sampling window.
inline std::atomic<bool> g_pool_accounting{false};
}  // namespace detail

/// True when busy/idle nanosecond accounting is active (one relaxed load -
/// this is the whole off-path cost of an accounting site).
inline bool pool_accounting_enabled() {
  return detail::g_pool_accounting.load(std::memory_order_relaxed);
}
/// Enables/disables busy/idle accounting process-wide. Counters are
/// cumulative and monotone; toggling only gates whether new time is added.
inline void set_pool_accounting(bool on) {
  detail::g_pool_accounting.store(on, std::memory_order_relaxed);
}

/// Fixed-size pool of worker threads executing range tasks.
class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency(). A non-empty
  /// `name` registers the pool in the process-wide stats registry (see
  /// pool_stats) so its busy/idle counters are exportable; anonymous pools
  /// stay private.
  explicit ThreadPool(unsigned threads = 0, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  const std::string& name() const { return name_; }
  /// Cumulative nanoseconds pool threads spent executing chunks (includes
  /// the chunks the calling thread ran). Only accumulates while
  /// pool_accounting_enabled(); monotone.
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  /// Cumulative nanoseconds workers spent parked waiting for work. The
  /// calling thread never parks, so idle covers workers_ only; monotone.
  int64_t idle_ns() const { return idle_ns_.load(std::memory_order_relaxed); }

  struct PoolStats {
    std::string name;
    unsigned threads = 0;
    int64_t busy_ns = 0;
    int64_t idle_ns = 0;
  };
  /// Snapshot of every live NAMED pool's counters (registry is
  /// mutex-guarded; scrape-rate calls only).
  static std::vector<PoolStats> pool_stats();

  /// Runs fn(begin, end) over [0, total) split into one contiguous chunk per
  /// pool thread (the calling thread claims chunks too). Blocks until every
  /// chunk finished. Exceptions from chunks are rethrown (first one).
  /// Thread-safe: concurrent calls take turns on the pool's launch mutex. A
  /// call made from inside one of this pool's chunks runs fn(0, total)
  /// inline on the calling thread.
  void run_chunks(int64_t total,
                  const std::function<void(int64_t, int64_t)>& fn);

  /// Process-wide pool; size from DSX_THREADS env var when set, else
  /// hardware concurrency.
  static ThreadPool& global();

  /// Pool the calling thread should run kernels on: the pool bound by the
  /// innermost PoolScope on this thread, else the pool whose worker this
  /// thread is, else global(). parallel_for and the launch_kernel entry
  /// points route through this, which is how dsx::shard gives every replica
  /// its own execution lane - a replica worker binds its lane pool and every
  /// kernel it launches lands there instead of the shared global pool.
  static ThreadPool& current();

 private:
  /// One run_chunks call, as every thread working on it sees it.
  struct Launch {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t total = 0;
    int64_t chunk = 0;    // chunk length; the last chunk may be shorter
    int64_t chunks = 0;   // number of non-empty chunks
    uint32_t tag = 0;     // low bits of the launch's generation
  };

  void worker_loop();
  /// Claims and runs chunks of `launch` until none is left unclaimed.
  void work_on(const Launch& launch);

  std::string name_;
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> idle_ns_{0};
  std::vector<std::thread> workers_;
  std::mutex launch_mu_;  // one launch at a time (held across run_chunks)
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Launch launch_;             // the current (or last) launch, under mu_
  uint64_t generation_ = 0;   // bumped per run_chunks call, under mu_
  int64_t done_ = 0;          // chunks of launch_ finished, under mu_
  // Next unclaimed chunk of the current launch, tagged with the launch in
  // the high 32 bits so a worker that woke for an earlier launch can never
  // claim a chunk of a later one.
  std::atomic<uint64_t> claim_{0};
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// RAII binding of a pool as ThreadPool::current() for the calling thread.
/// Scopes nest; each restores the previous binding. The binding is
/// thread-local, so one replica lane's scope never leaks into concurrent
/// lanes or into the pool's own worker threads.
class PoolScope {
 public:
  explicit PoolScope(ThreadPool& pool);
  ~PoolScope();

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  ThreadPool* saved_;
};

}  // namespace dsx::device
