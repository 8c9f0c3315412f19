#include "device/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace dsx::device {

namespace {

int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Registry of live NAMED pools, for pool_stats(). Ctor/dtor rate, so a
// mutex-guarded vector is plenty.
std::mutex& pools_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<ThreadPool*>& named_pools() {
  static std::vector<ThreadPool*> pools;
  return pools;
}

// Lane binding for the calling thread (see PoolScope); null = global pool.
thread_local ThreadPool* t_current_pool = nullptr;
// Pool whose chunk the calling thread is executing (a worker: its own pool,
// for life). run_chunks on that pool from this thread is a nested launch.
thread_local const ThreadPool* t_chunk_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads, std::string name)
    : name_(std::move(name)) {
  unsigned n = threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  // The calling thread acts as worker 0; spawn n-1 helpers.
  workers_.reserve(n - 1);
  for (unsigned i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (!name_.empty()) {
    std::lock_guard<std::mutex> lock(pools_mu());
    named_pools().push_back(this);
  }
}

ThreadPool::~ThreadPool() {
  if (!name_.empty()) {
    std::lock_guard<std::mutex> lock(pools_mu());
    auto& pools = named_pools();
    pools.erase(std::remove(pools.begin(), pools.end(), this), pools.end());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::vector<ThreadPool::PoolStats> ThreadPool::pool_stats() {
  std::vector<PoolStats> out;
  std::lock_guard<std::mutex> lock(pools_mu());
  out.reserve(named_pools().size());
  for (const ThreadPool* p : named_pools()) {
    out.push_back({p->name(), p->size(), p->busy_ns(), p->idle_ns()});
  }
  return out;
}

void ThreadPool::worker_loop() {
  // Kernels launched from inside a chunk stay on this pool (and so run
  // inline) rather than falling through to the global pool.
  t_current_pool = this;
  t_chunk_pool = this;
  uint64_t seen_generation = 0;
  for (;;) {
    Launch launch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto ready = [&] {
        return stop_ || generation_ != seen_generation;
      };
      if (pool_accounting_enabled()) {
        const int64_t t0 = mono_ns();
        cv_work_.wait(lock, ready);
        idle_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
      } else {
        cv_work_.wait(lock, ready);
      }
      if (stop_) return;
      seen_generation = generation_;
      launch = launch_;
    }
    work_on(launch);
  }
}

void ThreadPool::work_on(const Launch& launch) {
  for (;;) {
    uint64_t claim = claim_.load(std::memory_order_acquire);
    do {
      if (static_cast<uint32_t>(claim >> 32) != launch.tag ||
          static_cast<int64_t>(claim & 0xffffffffu) >= launch.chunks) {
        return;  // launch over, or every chunk already claimed
      }
    } while (!claim_.compare_exchange_weak(claim, claim + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire));
    const int64_t begin =
        static_cast<int64_t>(claim & 0xffffffffu) * launch.chunk;
    const int64_t end = std::min(begin + launch.chunk, launch.total);
    std::exception_ptr err;
    const bool acct = pool_accounting_enabled();
    const int64_t t0 = acct ? mono_ns() : 0;
    try {
      (*launch.fn)(begin, end);
    } catch (...) {
      err = std::current_exception();
    }
    if (acct) busy_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (err && !first_error_) first_error_ = err;
    if (++done_ == launch.chunks) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(int64_t total,
                            const std::function<void(int64_t, int64_t)>& fn) {
  DSX_REQUIRE(total >= 0, "run_chunks: negative range");
  if (total == 0) return;
  if (t_chunk_pool == this) {
    // Nested launch: this thread already owns a chunk of the running launch,
    // whose other chunks may be waiting on this thread; queueing behind it
    // would deadlock.
    fn(0, total);
    return;
  }
  std::lock_guard<std::mutex> launch_lock(launch_mu_);
  const int64_t nthreads = static_cast<int64_t>(size());
  Launch launch;
  launch.fn = &fn;
  launch.total = total;
  launch.chunk = (total + nthreads - 1) / nthreads;
  launch.chunks = (total + launch.chunk - 1) / launch.chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_CHECK(done_ == launch_.chunks,
              "run_chunks: overlapping launches on one pool");
    launch.tag = static_cast<uint32_t>(++generation_);
    launch_ = launch;
    done_ = 0;
    first_error_ = nullptr;
    claim_.store(static_cast<uint64_t>(launch.tag) << 32,
                 std::memory_order_release);
  }
  cv_work_.notify_all();

  const ThreadPool* saved_chunk_pool = t_chunk_pool;
  t_chunk_pool = this;
  work_on(launch);
  t_chunk_pool = saved_chunk_pool;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return done_ == launch.chunks; });
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      []() -> unsigned {
        if (const char* env = std::getenv("DSX_THREADS")) {
          const int v = std::atoi(env);
          if (v > 0) return static_cast<unsigned>(v);
        }
        return 0;
      }(),
      "global");
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_current_pool != nullptr ? *t_current_pool : global();
}

PoolScope::PoolScope(ThreadPool& pool) : saved_(t_current_pool) {
  t_current_pool = &pool;
}

PoolScope::~PoolScope() { t_current_pool = saved_; }

}  // namespace dsx::device
