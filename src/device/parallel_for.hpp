// Structured parallel loops over index ranges.
//
// parallel_for(n, f) runs f(i) for i in [0, n) on ThreadPool::current() -
// the lane pool bound by a device::PoolScope when one is active (dsx::shard
// replica lanes), else the process-global pool. Chunking never changes
// results: every output index is computed by exactly one thread, so pool
// size only affects scheduling, not floating-point evaluation order.
// parallel_for_2d flattens a rectangular space.
//
// Whether a loop is worth handing to the pool depends on how much work it
// holds, not on how many iterations it has: a per-channel kernel runs 8-256
// iterations that each sweep a whole N*H*W slab, while a 1024-element ReLU
// runs 1024 iterations of one flop. Kernel launches (device/launch.hpp)
// therefore go through parallel_for_work, which decides from the launch's
// modeled work - the KernelCosts it declares for gpusim, flops plus one
// unit per float moved, summed over its model threads. Floats moved count
// because data-movement kernels (shift, channel shuffle) declare no flops
// yet gain from the pool like any other. A launch holding at least
// kWorkGrain units uses the pool. The threshold is sized from the hand-off:
// waking the workers and joining them costs roughly 10-30 us on a 4-core
// x86 host, about what 64K units of scalar work take, so below that the
// split cannot win; above it every chunk still carries at least 16K units
// on a 4-thread pool. Measured on a 4-vCPU AVX2 host with perfbench, 16K /
// 64K / 256K gave train-step 250 / 242 / 242 items/s and serve-paced p50
// 4.49 / 4.47 / 4.95 ms: 256K leaves batch-1 serving layers that gain from
// the pool on one thread, and going below 64K bought nothing measurable.
//
// Plain loops without a cost model keep an iteration threshold: `grain`
// (default kDefaultGrain) is the fewest iterations worth parallelising.
//
// The thresholds are heuristics, and dsx::tune measures them instead of
// trusting them: a GrainOverride scope substitutes a tuned grain at every
// loop and launch it dynamically encloses, and there it means what it has
// always meant - parallel iff the iteration count reaches it, so grain 1
// parallelises everything and kSerialGrain nothing (call sites that pass an
// explicit non-default grain keep their choice). With no scope active the
// library rules above apply unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "device/thread_pool.hpp"

namespace dsx::device {

/// Minimum iterations per worker before a loop is worth parallelising.
inline constexpr int64_t kDefaultGrain = 1024;

/// Grain value that keeps any loop serial (total < grain always holds).
inline constexpr int64_t kSerialGrain = std::numeric_limits<int64_t>::max();

/// Modeled work units (flops + floats moved) a launch needs before it is
/// worth parallelising; see the header comment for how it was chosen.
inline constexpr double kWorkGrain = 65536.0;

/// Grain a loop will actually use: `requested`, unless the caller asked for
/// the library default while a GrainOverride scope is active on this thread.
int64_t effective_grain(int64_t requested);

/// RAII override of kDefaultGrain for the enclosed loops on this thread.
/// `grain <= 0` installs nothing (tuning records use 0 for "library
/// default"). Scopes nest; each restores the previous override.
class GrainOverride {
 public:
  explicit GrainOverride(int64_t grain);
  ~GrainOverride();
  GrainOverride(const GrainOverride&) = delete;
  GrainOverride& operator=(const GrainOverride&) = delete;

 private:
  int64_t saved_;
};

/// Runs body(i) for every i in [0, total). Parallel when total >= grain.
void parallel_for(int64_t total, const std::function<void(int64_t)>& body,
                  int64_t grain = kDefaultGrain);

/// Runs body(begin, end) over chunked subranges of [0, total); this is the
/// cheaper form when the body can keep per-chunk state (accumulators,
/// scratch buffers).
void parallel_for_chunks(int64_t total,
                         const std::function<void(int64_t, int64_t)>& body,
                         int64_t grain = kDefaultGrain);

/// Launch form of parallel_for_chunks: parallel when `work` (modeled work
/// units, see kWorkGrain) reaches kWorkGrain and total >= 2, or - inside a
/// GrainOverride scope - when total reaches the override grain.
void parallel_for_work(int64_t total, double work,
                       const std::function<void(int64_t, int64_t)>& body);

/// Runs body(i, j) over [0, rows) x [0, cols), parallel over the flattened
/// space.
void parallel_for_2d(int64_t rows, int64_t cols,
                     const std::function<void(int64_t, int64_t)>& body,
                     int64_t grain = kDefaultGrain);

}  // namespace dsx::device
