// Shared pieces of the repository benchmark: the model under test, clocks,
// order statistics, the metric report and the in-memory span recorder.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "deploy/arch_spec.hpp"

namespace perfbench {

// ---- the model under test ---------------------------------------------------

// MobileNet with DW+SCC at cg=2, co=50% (the paper's headline design point)
// on the CIFAR geometry, narrow enough to serve hundreds of requests/s.
inline constexpr int64_t kImage = 32;
inline constexpr int64_t kChannels = 3;
inline constexpr int64_t kClasses = 10;
inline constexpr double kWidth = 0.25;
inline constexpr uint64_t kInitSeed = 20211;  // model weights; not --seed
inline constexpr int64_t kMaxBatch = 8;
inline constexpr std::chrono::microseconds kMaxDelay{2000};
inline constexpr const char* kModelName = "mnet";

dsx::deploy::ArchSpec model_spec();

// ---- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---- order statistics -------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted copy); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // timing sample count (0 for counts and ratios)
};

/// What one run found. `failed` counts operations (requests, training
/// steps) whose reply was not kOk, threw, or failed an output check;
/// `correct` covers the outputs of every operation that did not fail plus
/// the stand-alone checks.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines, not parsed

  void e2e(std::string name, double value, std::string unit,
           int64_t samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit,
             int64_t samples = 0) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok, const std::string& what);
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code around calls into the program; ids are 1-based and
/// 0 means "no parent". Disabled (the untraced run) every call is one
/// branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = 0;
    uint64_t request = 0;
  };

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Records a finished span; returns its id (0 when disabled).
  uint32_t add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent = 0, uint64_t request = 0);
  /// Opens a span now; close it with end().
  uint32_t begin(const char* name, uint32_t parent = 0, uint64_t request = 0) {
    return add(name, now_ns(), 0, parent, request);
  }
  void end(uint32_t id);

  size_t size() const;
  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// Scoped span around a block of benchmark code.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint32_t parent = 0,
                     uint64_t request = 0)
      : id_(tracer().begin(name, parent, request)) {}
  ~SpanScope() { tracer().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  uint32_t id_;
};

/// Scratch directory for the run's store and span file, inside the
/// working directory (the checkout root).
std::string run_dir();

// ---- workloads ----------------------------------------------------------------

void run_serve_paced(const Options& opts, Report& report);
void run_train_step(const Options& opts, Report& report);

/// Host roofline reference: simd::gemm at one fixed square shape, GFLOP/s.
double gemm_peak_gflops();

}  // namespace perfbench
