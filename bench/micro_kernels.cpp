// Kernel-level microbenchmarks (google-benchmark): SCC forward/backward vs
// the PW/GPW primitives it replaces and the composition implementations.
// These complement the table/figure harnesses with op-granularity numbers.
//
// `--json` switches to the dsx::tune harness instead: it measures every
// registered kernel candidate on a shape sweep (including the dsx::simd
// vectorized candidates, admitted via fast-math), compiles a tuned vs
// untuned serving plan, asserts the tuned plan is never slower
// (SHAPE-CHECK), and writes machine-readable BENCH_micro_kernels.json
// (per-candidate timings) plus BENCH_tune.json (per-problem winners and the
// plan comparison) plus BENCH_simd_gemm.json (packed-GEMM GFLOP/s scalar vs
// sse2 vs avx2, and the fast-math tuned-plan end-to-end; SHAPE-CHECKs the
// packed AVX2 GEMM at >= 2x the scalar baseline on an AVX2 host).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/compositions.hpp"
#include "core/scc_gemm.hpp"
#include "core/scc_kernels.hpp"
#include "device/thread_pool.hpp"
#include "nn/layers_basic.hpp"
#include "ops/conv2d.hpp"
#include "ops/gemm.hpp"
#include "ops/shift.hpp"
#include "ops/shuffle.hpp"
#include "serve/compiled_model.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm.hpp"
#include "tensor/random.hpp"

namespace dsx {
namespace {

struct LayerData {
  scc::SCCConfig cfg;
  scc::ChannelWindowMap map;
  Tensor in, w, dout;

  LayerData(int64_t cin, int64_t cout, int64_t spatial, int64_t cg, double co,
            int64_t batch)
      : cfg{cin, cout, cg, co, 1}, map(cfg) {
    Rng rng(7);
    in = random_uniform(make_nchw(batch, cin, spatial, spatial), rng);
    w = random_uniform(Shape{cout, map.group_width()}, rng);
    dout = random_uniform(scc::scc_output_shape(in.shape(), map), rng);
  }
};

LayerData& layer(int64_t cg) {
  static LayerData l2(64, 128, 16, 2, 0.5, 8);
  static LayerData l4(64, 128, 16, 4, 0.5, 8);
  static LayerData l8(64, 128, 16, 8, 0.5, 8);
  switch (cg) {
    case 4: return l4;
    case 8: return l8;
    default: return l2;
  }
}

void BM_SCCForwardFused(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_forward(l.in, l.w, nullptr, l.map));
  }
  state.counters["macs"] = benchmark::Counter(
      static_cast<double>(l.in.shape().n()) * l.cfg.out_channels * 16 * 16 *
          l.map.group_width(),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SCCForwardFused)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardNoCycleTable(benchmark::State& state) {
  // Ablation of the channel-cyclic index reuse (paper Algorithm 2): window
  // starts recomputed per filter instead of read from the one-cycle table.
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scc::scc_forward_no_cycle_table(l.in, l.w, nullptr, l.map));
  }
}
BENCHMARK(BM_SCCForwardNoCycleTable)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardChannelStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  const scc::ChannelStackSCC impl(l.cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl.forward(l.in, l.w, nullptr));
  }
}
BENCHMARK(BM_SCCForwardChannelStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardConvStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  const scc::ConvStackSCC impl(l.cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl.forward(l.in, l.w, nullptr));
  }
}
BENCHMARK(BM_SCCForwardConvStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardInputCentric(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_backward_input_centric(
        l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardInputCentric)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardOutputCentric(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_backward_output_centric(
        l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardOutputCentric)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardGemmStack(benchmark::State& state) {
  // The paper's rejected alternative (§IV): Cout fine-grained per-filter
  // GEMMs over gathered windows. Expected to lose to the fused kernel on
  // gather traffic and GEMM-granularity alone.
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_forward_gemm(l.in, l.w, nullptr, l.map));
  }
}
BENCHMARK(BM_SCCForwardGemmStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardGemmStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scc::scc_backward_gemm(l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardGemmStack)->Arg(2)->Arg(4)->Arg(8);

void BM_ShiftForward(benchmark::State& state) {
  // Zero-FLOP spatial stage (paper ref [10]); contrast with depthwise.
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  const auto shifts = make_uniform_shifts(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shift_forward(in, shifts, 1));
  }
}
BENCHMARK(BM_ShiftForward);

void BM_ChannelShuffleForward(benchmark::State& state) {
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel_shuffle_forward(in, state.range(0)));
  }
}
BENCHMARK(BM_ChannelShuffleForward)->Arg(2)->Arg(4)->Arg(8);

void BM_PointwiseConvForward(benchmark::State& state) {
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  Tensor w = random_uniform(Shape{128, 64, 1, 1}, rng);
  const Conv2dArgs args{1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_forward(in, w, nullptr, args));
  }
}
BENCHMARK(BM_PointwiseConvForward);

void BM_GroupPointwiseForward(benchmark::State& state) {
  const int64_t cg = state.range(0);
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  Tensor w = random_uniform(Shape{128, 64 / cg, 1, 1}, rng);
  const Conv2dArgs args{1, 0, cg};
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_forward(in, w, nullptr, args));
  }
}
BENCHMARK(BM_GroupPointwiseForward)->Arg(2)->Arg(4)->Arg(8);

// ---- dsx::tune harness (--json mode) -----------------------------------------

namespace tunebench {

struct SccShape {
  const char* tag;
  int64_t batch, cin, cout, spatial, cg;
  double co;
};

struct ConvShape {
  const char* tag;
  int64_t batch, cin, cout, spatial, k, pad;
};

std::string json_scc_timing(const SccShape& s, const tune::CandidateTiming& t) {
  std::ostringstream os;
  os << "{\"op\":\"scc_forward\",\"shape\":\"" << s.tag << "\",\"n\":" << s.batch
     << ",\"c\":" << s.cin << ",\"hw\":" << s.spatial << ",\"cout\":" << s.cout
     << ",\"variant\":\"" << t.variant << "\",\"grain\":\""
     << tune::grain_name(t.grain) << "\",\"fidelity\":\""
     << tune::fidelity_name(t.fidelity)
     << "\",\"median_ns\":" << bench::fmt(t.median_ns, 0)
     << "}";
  return os.str();
}

std::string json_conv_timing(const ConvShape& s,
                             const tune::CandidateTiming& t) {
  std::ostringstream os;
  os << "{\"op\":\"conv2d_forward\",\"shape\":\"" << s.tag
     << "\",\"n\":" << s.batch << ",\"c\":" << s.cin << ",\"hw\":" << s.spatial
     << ",\"cout\":" << s.cout << ",\"k\":" << s.k << ",\"variant\":\""
     << t.variant << "\",\"grain\":\"" << tune::grain_name(t.grain)
     << "\",\"fidelity\":\"" << tune::fidelity_name(t.fidelity)
     << "\",\"median_ns\":" << bench::fmt(t.median_ns, 0) << "}";
  return os.str();
}

std::string json_winner(const char* op, const char* tag,
                        const tune::TuningRecord& rec) {
  std::ostringstream os;
  os << "{\"kind\":\"problem_winner\",\"op\":\"" << op << "\",\"shape\":\""
     << tag << "\",\"variant\":\"" << rec.variant << "\",\"grain\":\""
     << tune::grain_name(rec.grain)
     << "\",\"median_ns\":" << bench::fmt(rec.median_ns, 0)
     << ",\"default_ns\":" << bench::fmt(rec.default_ns, 0)
     << ",\"speedup_vs_default\":"
     << bench::fmt(rec.default_ns / rec.median_ns, 3) << "}";
  return os.str();
}

bool non_default(const std::string& variant, int64_t grain,
                 const char* default_variant) {
  return variant != default_variant || grain != tune::kGrainDefault;
}

/// Interleaved A-vs-B plan timing, same reasoning as the Tuner: one run of
/// each per round so scheduler bursts land on both plans instead of biasing
/// whichever was measured second. Returns {median_a_ms, median_b_ms}.
std::pair<double, double> time_plans_interleaved(serve::CompiledModel& a,
                                                 serve::CompiledModel& b,
                                                 const Tensor& batch_in,
                                                 int rounds = 15) {
  std::vector<double> ta, tb;
  for (int it = 0; it < rounds; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)a.run(batch_in);
    const auto t1 = std::chrono::steady_clock::now();
    (void)b.run(batch_in);
    const auto t2 = std::chrono::steady_clock::now();
    ta.push_back(std::chrono::duration<double>(t1 - t0).count());
    tb.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  return {ta[ta.size() / 2] * 1e3, tb[tb.size() / 2] * 1e3};
}

/// Prints a compiled plan's per-layer winners and emits one `kind` JSON
/// record per layer into `out`. When `scc_non_default_win` is non-null it
/// is OR-ed with "an SCC layer picked a non-default variant/schedule with
/// measured speedup" (the sweep SHAPE-CHECK input).
void report_plan_layers(const serve::CompiledModel& plan, const char* kind,
                        bench::JsonWriter& out, bool* scc_non_default_win) {
  for (const serve::TunedLayerChoice& c : plan.report().tuned) {
    std::printf("  %-40s %s@g=%s [%s]  %.0f -> %.0f ns (%.2fx)\n",
                c.layer.c_str(), c.variant.c_str(),
                tune::grain_name(c.grain).c_str(),
                tune::fidelity_name(c.fidelity), c.default_ns, c.median_ns,
                c.default_ns / c.median_ns);
    std::ostringstream os;
    os << "{\"kind\":\"" << kind << "\",\"layer\":\"" << c.layer
       << "\",\"variant\":\"" << c.variant << "\",\"grain\":\""
       << tune::grain_name(c.grain) << "\",\"fidelity\":\""
       << tune::fidelity_name(c.fidelity)
       << "\",\"median_ns\":" << bench::fmt(c.median_ns, 0)
       << ",\"default_ns\":" << bench::fmt(c.default_ns, 0) << "}";
    out.add(os.str());
    if (scc_non_default_win != nullptr && c.layer.rfind("SCCConv", 0) == 0 &&
        non_default(c.variant, c.grain, "fused") &&
        c.median_ns < c.default_ns) {
      *scc_non_default_win = true;
    }
  }
}

/// Tuned-vs-untuned serving plan model: a conv stem plus three SCC stages
/// whose spatial work shrinks 8x8 -> 4x4 while the channel counts stay
/// wide - the deep-layer regime where the static work-size heuristic
/// (device::kWorkGrain) most needs measuring.
std::unique_ptr<nn::Sequential> build_plan_model(uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 64, 3, 1, 1, 1, rng, /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{64, 128, 4, 0.5, 1}, rng,
                            /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{128, 64, 8, 0.5, 2}, rng,
                            /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{64, 128, 8, 0.5, 1}, rng,
                            /*bias=*/true);
  return net;
}

int run() {
  // The schedule axis needs a pool wider than one thread to exist; honor an
  // operator's DSX_THREADS but default to 4 so even single-core CI
  // exercises (and measures!) the parallel-vs-serial decision.
  ::setenv("DSX_THREADS", "4", /*overwrite=*/0);
  bench::banner("dsx::tune candidate sweep + tuned serving plan");
  std::printf("pool threads: %u (DSX_THREADS=%s)\n",
              device::ThreadPool::global().size(), std::getenv("DSX_THREADS"));

  bench::JsonWriter kernels("micro_kernels", true);
  bench::JsonWriter tuned_report("tune", true);
  bench::JsonWriter simd_report("simd_gemm", true);
  // allow_fast_math: the sweep measures the full menu including the
  // kUlpBounded simd candidates (the strict plan compile below still runs
  // with fast-math off and keeps its bit-identity SHAPE-CHECK).
  const tune::Tuner tuner(
      {.warmup = 2, .iters = 9, .allow_fast_math = true});
  bool scc_non_default_win = false;

  // ---- per-candidate sweep --------------------------------------------------
  const std::vector<SccShape> scc_shapes = {
      // Mid-network geometry: 1024 (n, filter) planes of 8x8 work.
      {"b8_c64_s8_cout128", 8, 64, 128, 8, 4, 0.5},
      // Deep-layer geometry: 1024 planes of TINY 2x2/gw4 work. The static
      // grain heuristic parallelises on range length alone, but here the
      // pool hand-off costs more than the whole loop - the shape the tuner
      // is for.
      {"b8_c64_s2_cout128", 8, 64, 128, 2, 16, 0.5},
      // Head geometry after full downsampling: 2048 planes of one pixel
      // each - the pathological case for range-length grain heuristics.
      {"b8_c64_s1_cout256", 8, 64, 256, 1, 16, 0.5},
      // Single-image geometry: 128 planes of heavy 32x32 work stays serial
      // under the default heuristic (a win to find on true multi-core).
      {"b1_c64_s32_cout128", 1, 64, 128, 32, 4, 0.5},
  };
  Rng rng(21);
  for (const SccShape& s : scc_shapes) {
    const scc::SCCConfig cfg{s.cin, s.cout, s.cg, s.co, 1};
    const scc::ChannelWindowMap map(cfg);
    const Tensor in =
        random_uniform(make_nchw(s.batch, s.cin, s.spatial, s.spatial), rng);
    const Tensor w = random_uniform(Shape{s.cout, map.group_width()}, rng);
    const tune::ProblemKey key = tune::make_scc_forward_key(in.shape(), map);
    const tune::TuneResult result = tuner.tune_scc(key, in, w, nullptr, map);
    for (const tune::CandidateTiming& t : result.timings) {
      kernels.add(json_scc_timing(s, t));
    }
    tuned_report.add(json_winner("scc_forward", s.tag, result.record));
    std::printf("  scc  %-20s -> %s@g=%s (%.2fx vs default)\n", s.tag,
                result.record.variant.c_str(),
                tune::grain_name(result.record.grain).c_str(),
                result.record.default_ns / result.record.median_ns);
    if (non_default(result.record.variant, result.record.grain, "fused") &&
        result.record.median_ns < result.record.default_ns) {
      scc_non_default_win = true;
    }
  }

  const std::vector<ConvShape> conv_shapes = {
      {"b8_c64_s16_cout64_k3", 8, 64, 64, 16, 3, 1},
      {"b8_c64_s16_cout128_k1", 8, 64, 128, 16, 1, 0},
  };
  for (const ConvShape& s : conv_shapes) {
    const Conv2dArgs args{1, s.pad, 1};
    const Tensor in =
        random_uniform(make_nchw(s.batch, s.cin, s.spatial, s.spatial), rng);
    const Tensor w = random_uniform(Shape{s.cout, s.cin, s.k, s.k}, rng);
    const tune::ProblemKey key =
        tune::make_conv2d_forward_key(in.shape(), w.shape(), args);
    const tune::TuneResult result = tuner.tune_conv2d(key, in, w, nullptr, args);
    for (const tune::CandidateTiming& t : result.timings) {
      kernels.add(json_conv_timing(s, t));
    }
    tuned_report.add(json_winner("conv2d_forward", s.tag, result.record));
    std::printf("  conv %-20s -> %s@g=%s (%.2fx vs default)\n", s.tag,
                result.record.variant.c_str(),
                tune::grain_name(result.record.grain).c_str(),
                result.record.default_ns / result.record.median_ns);
  }

  // ---- packed GEMM GFLOP/s: scalar baseline vs simd ISA levels -------------
  std::printf("\npacked GEMM (dsx::simd) vs scalar dsx::gemm, host ISA %s:\n",
              simd::isa_name(simd::detect_isa()));
  struct GemmShape {
    int64_t M, N, K;
  };
  const std::vector<GemmShape> gemm_shapes = {
      {128, 128, 128},  // L1-resident
      {256, 256, 256},  // L2-resident
      {384, 384, 384},  // spills L2: packing reuse pays
      {96, 1024, 576},  // conv-shaped (cout x planeo x cin*k*k)
  };
  double avx2_best_speedup = 0.0;
  for (const GemmShape& s : gemm_shapes) {
    const Tensor a = random_uniform(Shape{s.M, s.K}, rng);
    const Tensor b = random_uniform(Shape{s.K, s.N}, rng);
    Tensor c(Shape{s.M, s.N});
    const double flops = 2.0 * static_cast<double>(s.M * s.N * s.K);
    const double t_scalar = bench::time_median(
        [&] {
          gemm(false, false, s.M, s.N, s.K, 1.0f, a.data(), s.K, b.data(),
               s.N, 0.0f, c.data(), s.N);
        },
        1, 5);
    {
      std::ostringstream os;
      os << "{\"op\":\"gemm\",\"M\":" << s.M << ",\"N\":" << s.N
         << ",\"K\":" << s.K << ",\"impl\":\"scalar_ref\",\"gflops\":"
         << bench::fmt(flops / t_scalar / 1e9, 2) << ",\"speedup\":1.0}";
      simd_report.add(os.str());
    }
    std::printf("  %4lldx%-4lldx%-4lld scalar_ref %7.2f GFLOP/s",
                static_cast<long long>(s.M), static_cast<long long>(s.N),
                static_cast<long long>(s.K), flops / t_scalar / 1e9);
    for (const simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
      if (!simd::isa_available(isa)) continue;
      const double t = bench::time_median(
          [&] {
            simd::gemm(false, false, s.M, s.N, s.K, 1.0f, a.data(), s.K,
                       b.data(), s.N, 0.0f, c.data(), s.N, isa);
          },
          1, 5);
      const double speedup = t_scalar / t;
      if (isa == simd::Isa::kAvx2) {
        avx2_best_speedup = std::max(avx2_best_speedup, speedup);
      }
      std::ostringstream os;
      os << "{\"op\":\"gemm\",\"M\":" << s.M << ",\"N\":" << s.N
         << ",\"K\":" << s.K << ",\"impl\":\"simd_" << simd::isa_name(isa)
         << "\",\"gflops\":" << bench::fmt(flops / t / 1e9, 2)
         << ",\"speedup\":" << bench::fmt(speedup, 2) << "}";
      simd_report.add(os.str());
      std::printf(" | %s %7.2f (%4.2fx)", simd::isa_name(isa),
                  flops / t / 1e9, speedup);
    }
    std::printf("\n");
  }

  // ---- tuned vs untuned CompiledModel --------------------------------------
  const int64_t image = 8, batch = 8;
  tune::Session::global().cache().clear();
  serve::CompiledModel untuned(build_plan_model(5), Shape{3, image, image},
                               {.max_batch = batch});
  // The compile pass uses a higher challenger bar than the sweep: a baked
  // schedule must beat the default by >10% measured, which keeps plan
  // choices out of this substrate's noise band.
  serve::CompiledModel tuned(
      build_plan_model(5), Shape{3, image, image},
      {.max_batch = batch,
       .tuning = tune::Mode::kTune,
       .tuner = {.warmup = 2, .iters = 9, .time_epsilon = 0.10}});

  Rng img_rng(23);
  const Tensor batch_in =
      random_uniform(make_nchw(batch, 3, image, image), img_rng);
  const Tensor out_untuned = untuned.run(batch_in);
  const Tensor out_tuned = tuned.run(batch_in);

  const auto [untuned_ms, tuned_ms] =
      time_plans_interleaved(untuned, tuned, batch_in);
  std::printf("\ncompiled plan, batch %lld: untuned %.3f ms, tuned %.3f ms "
              "(%.2fx); per-layer winners:\n",
              static_cast<long long>(batch), untuned_ms, tuned_ms,
              untuned_ms / tuned_ms);
  report_plan_layers(tuned, "plan_layer", tuned_report, &scc_non_default_win);
  {
    std::ostringstream os;
    os << "{\"kind\":\"compiled_plan\",\"batch\":" << batch
       << ",\"untuned_ms\":" << bench::fmt(untuned_ms, 3)
       << ",\"tuned_ms\":" << bench::fmt(tuned_ms, 3)
       << ",\"speedup\":" << bench::fmt(untuned_ms / tuned_ms, 3) << "}";
    tuned_report.add(os.str());
  }

  // ---- fast-math tuned plan end-to-end (simd candidates admitted) ----------
  tune::Session::global().cache().clear();
  serve::CompiledModel fast_plan(
      build_plan_model(5), Shape{3, image, image},
      {.max_batch = batch,
       .tuning = tune::Mode::kTune,
       .tuner = {.warmup = 2, .iters = 9, .time_epsilon = 0.10},
       .allow_fast_math = true});
  const Tensor out_fast = fast_plan.run(batch_in);
  const auto [base_ms, fast_ms] =
      time_plans_interleaved(untuned, fast_plan, batch_in);
  std::printf("\nfast-math plan, batch %lld: untuned %.3f ms, fast-math tuned "
              "%.3f ms (%.2fx); per-layer winners:\n",
              static_cast<long long>(batch), base_ms, fast_ms,
              base_ms / fast_ms);
  report_plan_layers(fast_plan, "fastmath_plan_layer", simd_report, nullptr);
  {
    std::ostringstream os;
    os << "{\"kind\":\"fastmath_plan\",\"batch\":" << batch
       << ",\"untuned_ms\":" << bench::fmt(base_ms, 3)
       << ",\"fastmath_ms\":" << bench::fmt(fast_ms, 3)
       << ",\"speedup\":" << bench::fmt(base_ms / fast_ms, 3) << "}";
    simd_report.add(os.str());
  }

  kernels.write();
  tuned_report.write();
  simd_report.write();

  bool ok = true;
  {
    const bool same = out_untuned.shape() == out_tuned.shape() &&
                      std::memcmp(out_untuned.data(), out_tuned.data(),
                                  static_cast<size_t>(out_untuned.numel()) *
                                      sizeof(float)) == 0;
    ok = bench::shape_check(
             "tuned plan output is bit-identical to the untuned plan", same) &&
         ok;
  }
  {
    char claim[160];
    std::snprintf(claim, sizeof(claim),
                  "tuned plan is never slower than the untuned default "
                  "(%.3f ms vs %.3f ms, 10%% noise margin)",
                  tuned_ms, untuned_ms);
    ok = bench::shape_check(claim, tuned_ms <= untuned_ms * 1.10) && ok;
  }
  ok = bench::shape_check(
           "at least one SCC problem selects a non-default variant/schedule "
           "with measured speedup",
           scc_non_default_win) &&
       ok;
  if (simd::isa_available(simd::Isa::kAvx2)) {
    char claim[128];
    std::snprintf(claim, sizeof(claim),
                  "packed AVX2 GEMM beats the scalar baseline by >= 2x "
                  "(best %.2fx)",
                  avx2_best_speedup);
    ok = bench::shape_check(claim, avx2_best_speedup >= 2.0) && ok;
  } else {
    std::printf("note: host lacks AVX2; packed-GEMM >=2x check skipped\n");
  }
  {
    // Fast-math outputs are not bit-identical, but must stay numerically
    // close to the strict plan (ULP divergence compounds across layers, so
    // this is a relative tolerance, not a per-op ULP bound).
    bool close = out_fast.shape() == out_untuned.shape();
    for (int64_t i = 0; close && i < out_fast.numel(); ++i) {
      close = std::abs(out_fast[i] - out_untuned[i]) <=
              1e-3f * (1.0f + std::abs(out_untuned[i]));
    }
    ok = bench::shape_check(
             "fast-math tuned plan output stays numerically close to the "
             "untuned plan",
             close) &&
         ok;
  }
  {
    char claim[160];
    std::snprintf(claim, sizeof(claim),
                  "fast-math tuned plan is never slower than the untuned "
                  "default (%.3f ms vs %.3f ms, 10%% noise margin)",
                  fast_ms, base_ms);
    ok = bench::shape_check(claim, fast_ms <= base_ms * 1.10) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace tunebench

}  // namespace
}  // namespace dsx

int main(int argc, char** argv) {
  if (dsx::bench::has_flag(argc, argv, "--json")) {
    return dsx::tunebench::run();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
