// Tests for the fused SCC kernels and the operator-composition
// implementations: forward equivalence against a literal reference, corner
// cases (PW / GPW), backward-design equivalence (input-centric ==
// output-centric), numerical gradients, and the atomic-operation claims of
// the paper's Fig. 9.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "core/compositions.hpp"
#include "core/scc_kernels.hpp"
#include "device/atomic_stats.hpp"
#include "ops/conv2d.hpp"
#include "tensor/alloc_tracker.hpp"
#include "testing_utils.hpp"

namespace dsx::scc {
namespace {

using testing::ProbeLoss;
using testing::max_numeric_grad_error;
using testing::naive_scc;

SCCConfig make_cfg(int64_t cin, int64_t cout, int64_t cg, double co,
                   int64_t stride = 1) {
  SCCConfig cfg;
  cfg.in_channels = cin;
  cfg.out_channels = cout;
  cfg.groups = cg;
  cfg.overlap = co;
  cfg.stride = stride;
  return cfg;
}

std::vector<int64_t> window_starts(const ChannelWindowMap& map) {
  std::vector<int64_t> starts(
      static_cast<size_t>(map.config().out_channels));
  for (int64_t f = 0; f < map.config().out_channels; ++f) {
    starts[static_cast<size_t>(f)] = map.window(f).start;
  }
  return starts;
}

struct SccCase {
  int64_t N, Cin, Cout, H, W, cg;
  double co;
  int64_t stride;
};

class SccForwardSweep : public ::testing::TestWithParam<SccCase> {};

TEST_P(SccForwardSweep, MatchesNaiveReference) {
  const SccCase p = GetParam();
  const SCCConfig cfg = make_cfg(p.Cin, p.Cout, p.cg, p.co, p.stride);
  ChannelWindowMap map(cfg);
  Rng rng(101);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, map.group_width()}, rng);
  Tensor b = random_uniform(Shape{p.Cout}, rng);

  Tensor got = scc_forward(in, w, &b, map);
  Tensor want = naive_scc(in, w, &b, map.group_width(), window_starts(map),
                          p.stride);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_LT(max_abs_diff(got, want), 1e-4f);
}

TEST_P(SccForwardSweep, CompositionsMatchFusedKernel) {
  const SccCase p = GetParam();
  const SCCConfig cfg = make_cfg(p.Cin, p.Cout, p.cg, p.co, p.stride);
  ChannelWindowMap map(cfg);
  Rng rng(103);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, map.group_width()}, rng);
  Tensor b = random_uniform(Shape{p.Cout}, rng);

  const Tensor fused = scc_forward(in, w, &b, map);

  const ChannelStackSCC chs(cfg);
  EXPECT_LT(max_abs_diff(chs.forward(in, w, &b), fused), 1e-4f)
      << "channel-stack diverges for " << cfg.to_string();

  const ChannelStackSCC chs_cc(cfg, /*cyclic_opt=*/true);
  EXPECT_LT(max_abs_diff(chs_cc.forward(in, w, &b), fused), 1e-4f)
      << "channel-stack+CC diverges for " << cfg.to_string();

  const ConvStackSCC cos_cc(cfg, /*cyclic_opt=*/true);
  EXPECT_LT(max_abs_diff(cos_cc.forward(in, w, &b), fused), 1e-4f)
      << "conv-stack+CC diverges for " << cfg.to_string();

  const ConvStackSCC cos(cfg, /*cyclic_opt=*/false);
  EXPECT_LT(max_abs_diff(cos.forward(in, w, &b), fused), 1e-4f)
      << "conv-stack diverges for " << cfg.to_string();
}

TEST_P(SccForwardSweep, BackwardDesignsAgree) {
  // Input-centric (DSXplore) and output-centric (DSXplore-Var) must produce
  // identical gradients - they differ only in thread mapping.
  const SccCase p = GetParam();
  const SCCConfig cfg = make_cfg(p.Cin, p.Cout, p.cg, p.co, p.stride);
  ChannelWindowMap map(cfg);
  Rng rng(107);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, map.group_width()}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  const SCCGrads a = scc_backward_input_centric(in, w, dout, map, true, true);
  const SCCGrads b = scc_backward_output_centric(in, w, dout, map, true, true);
  EXPECT_LT(max_abs_diff(a.dinput, b.dinput), 1e-4f);
  EXPECT_LT(max_abs_diff(a.dweight, b.dweight), 1e-4f);
  EXPECT_LT(max_abs_diff(a.dbias, b.dbias), 1e-4f);
}

TEST_P(SccForwardSweep, CompositionBackwardsMatchFused) {
  const SccCase p = GetParam();
  const SCCConfig cfg = make_cfg(p.Cin, p.Cout, p.cg, p.co, p.stride);
  ChannelWindowMap map(cfg);
  Rng rng(109);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, map.group_width()}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  const SCCGrads fused =
      scc_backward_input_centric(in, w, dout, map, true, true);

  const ChannelStackSCC chs(cfg);
  const SCCGrads g1 = chs.backward(in, w, dout, true, true);
  EXPECT_LT(max_abs_diff(g1.dinput, fused.dinput), 1e-3f);
  EXPECT_LT(max_abs_diff(g1.dweight, fused.dweight), 1e-3f);
  EXPECT_LT(max_abs_diff(g1.dbias, fused.dbias), 1e-3f);

  const ConvStackSCC cos(cfg);
  const SCCGrads g2 = cos.backward(in, w, dout, true, true);
  EXPECT_LT(max_abs_diff(g2.dinput, fused.dinput), 1e-3f);
  EXPECT_LT(max_abs_diff(g2.dweight, fused.dweight), 1e-3f);
  EXPECT_LT(max_abs_diff(g2.dbias, fused.dbias), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SccForwardSweep,
    ::testing::Values(
        SccCase{1, 4, 8, 4, 4, 2, 0.5, 1},       // paper Fig. 5(a)
        SccCase{2, 6, 6, 3, 5, 2, 1.0 / 3.0, 1}, // paper Fig. 5(b)
        SccCase{1, 8, 16, 5, 5, 4, 0.5, 1},
        SccCase{2, 8, 8, 4, 4, 2, 0.25, 1},
        SccCase{1, 8, 12, 4, 4, 2, 0.75, 1},
        SccCase{1, 8, 16, 4, 4, 1, 1.0, 1},      // PW corner
        SccCase{1, 8, 16, 4, 4, 4, 0.0, 1},      // GPW corner
        SccCase{2, 8, 8, 6, 6, 2, 0.5, 2},       // strided
        SccCase{1, 16, 8, 3, 3, 8, 0.5, 1},      // Cout < Cin
        SccCase{1, 12, 24, 4, 4, 3, 0.5, 1},     // non-power-of-two
        SccCase{1, 4, 3, 2, 2, 2, 0.5, 1}));     // Cout not multiple of dist

// ---- corner-case equivalences ---------------------------------------------------

TEST(SccEquivalence, Cg1Co100EqualsPointwiseConv) {
  // SCC(cg=1, co=100%) must equal a dense 1x1 convolution bit-for-bit in
  // weight-to-channel mapping (paper Table I, dagger note).
  const SCCConfig cfg = make_cfg(6, 10, 1, 1.0);
  ChannelWindowMap map(cfg);
  Rng rng(113);
  Tensor in = random_uniform(make_nchw(2, 6, 4, 4), rng);
  Tensor w = random_uniform(Shape{10, 6}, rng);
  Tensor b = random_uniform(Shape{10}, rng);

  const Tensor scc_out = scc_forward(in, w, &b, map);
  const Tensor w4 = w.reshape(Shape{10, 6, 1, 1});
  const Tensor pw_out = conv2d_forward(in, w4, &b, Conv2dArgs{1, 0, 1});
  EXPECT_LT(max_abs_diff(scc_out, pw_out), 1e-4f);
}

TEST(SccEquivalence, Co0IsGpwUpToOutputPermutation) {
  // SCC(cg=m, co=0) covers the same m windows as GPW but assigns filters
  // round-robin instead of block-wise (paper Table I, star note). Verify by
  // permuting output channels.
  const int64_t Cin = 8, Cout = 8, m = 4;
  const SCCConfig cfg = make_cfg(Cin, Cout, m, 0.0);
  ChannelWindowMap map(cfg);
  const int64_t gw = map.group_width();
  Rng rng(127);
  Tensor in = random_uniform(make_nchw(1, Cin, 3, 3), rng);
  Tensor w = random_uniform(Shape{Cout, gw}, rng);

  const Tensor scc_out = scc_forward(in, w, nullptr, map);

  // Build the GPW weight with filters permuted so block g holds the SCC
  // filters whose window is group g.
  Tensor gpw_w(Shape{Cout, gw, 1, 1});
  std::vector<int64_t> perm(static_cast<size_t>(Cout));
  std::vector<int64_t> next_slot(static_cast<size_t>(m), 0);
  const int64_t per_group = Cout / m;
  for (int64_t f = 0; f < Cout; ++f) {
    const int64_t g = map.window(f).start / gw;
    const int64_t slot = g * per_group + next_slot[static_cast<size_t>(g)]++;
    perm[static_cast<size_t>(f)] = slot;
    for (int64_t k = 0; k < gw; ++k) {
      gpw_w[slot * gw + k] = w.at(f, k);
    }
  }
  const Tensor gpw_out =
      conv2d_forward(in, gpw_w, nullptr, Conv2dArgs{1, 0, m});
  for (int64_t f = 0; f < Cout; ++f) {
    const int64_t slot = perm[static_cast<size_t>(f)];
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(scc_out[f * 9 + j], gpw_out[slot * 9 + j], 1e-4f);
    }
  }
}

// ---- numerical gradients ---------------------------------------------------------

class SccGradCheck : public ::testing::TestWithParam<SccCase> {};

TEST_P(SccGradCheck, AllGradientsMatchNumerics) {
  const SccCase p = GetParam();
  const SCCConfig cfg = make_cfg(p.Cin, p.Cout, p.cg, p.co, p.stride);
  ChannelWindowMap map(cfg);
  Rng rng(131);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, map.group_width()}, rng, -0.5f,
                            0.5f);
  Tensor b = random_uniform(Shape{p.Cout}, rng);

  ProbeLoss probe(scc_output_shape(in.shape(), map));
  const auto loss = [&] { return probe.value(scc_forward(in, w, &b, map)); };
  const SCCGrads g =
      scc_backward_input_centric(in, w, probe.mask, map, true, true);
  EXPECT_LT(max_numeric_grad_error(w, loss, g.dweight), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(b, loss, g.dbias), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(in, loss, g.dinput), 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SccGradCheck,
    ::testing::Values(SccCase{1, 4, 8, 3, 3, 2, 0.5, 1},
                      SccCase{2, 6, 6, 2, 2, 2, 1.0 / 3.0, 1},
                      SccCase{1, 8, 4, 3, 3, 4, 0.5, 1},
                      SccCase{1, 4, 4, 5, 5, 2, 0.5, 2},
                      SccCase{1, 4, 6, 3, 3, 1, 1.0, 1}));

// ---- atomic-operation claims (paper Fig. 9) --------------------------------------

TEST(SccAtomics, InputCentricBackwardUsesZeroAtomics) {
  const SCCConfig cfg = make_cfg(16, 32, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(137);
  Tensor in = random_uniform(make_nchw(2, 16, 8, 8), rng);
  Tensor w = random_uniform(Shape{32, 8}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  device::AtomicCountScope scope;
  scc_backward_input_centric(in, w, dout, map, true, false);
  EXPECT_EQ(scope.adds(), 0);
}

TEST(SccAtomics, OutputCentricBackwardAtomicCountIsExact) {
  // The push design needs one atomic add per (n, filter, tap, output pixel).
  const SCCConfig cfg = make_cfg(16, 32, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(139);
  const int64_t N = 2, H = 8, W = 8;
  Tensor in = random_uniform(make_nchw(N, 16, H, W), rng);
  Tensor w = random_uniform(Shape{32, 8}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  device::AtomicCountScope scope;
  scc_backward_output_centric(in, w, dout, map, true, false);
  EXPECT_EQ(scope.adds(), N * 32 * map.group_width() * H * W);
}

TEST(SccAtomics, InputCentricRemovesOver90PercentOfAtomics) {
  // The paper reports >90% atomic reduction on average; here the gather
  // design eliminates them entirely.
  const SCCConfig cfg = make_cfg(8, 16, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(149);
  Tensor in = random_uniform(make_nchw(1, 8, 6, 6), rng);
  Tensor w = random_uniform(Shape{16, 4}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  int64_t output_centric_atomics = 0;
  {
    device::AtomicCountScope scope;
    scc_backward_output_centric(in, w, dout, map, true, false);
    output_centric_atomics = scope.adds();
  }
  int64_t input_centric_atomics = 0;
  {
    device::AtomicCountScope scope;
    scc_backward_input_centric(in, w, dout, map, true, false);
    input_centric_atomics = scope.adds();
  }
  ASSERT_GT(output_centric_atomics, 0);
  const double reduction =
      1.0 - static_cast<double>(input_centric_atomics) /
                static_cast<double>(output_centric_atomics);
  EXPECT_GT(reduction, 0.9);
}

// ---- shape / argument validation -------------------------------------------------

TEST(SccValidation, WeightShapeChecked) {
  const SCCConfig cfg = make_cfg(8, 16, 2, 0.5);
  ChannelWindowMap map(cfg);
  Tensor in(make_nchw(1, 8, 4, 4));
  Tensor bad_w(Shape{16, 8});  // gw is 4, not 8
  EXPECT_THROW(scc_forward(in, bad_w, nullptr, map), Error);
}

TEST(SccValidation, InputChannelsChecked) {
  const SCCConfig cfg = make_cfg(8, 16, 2, 0.5);
  ChannelWindowMap map(cfg);
  Tensor in(make_nchw(1, 6, 4, 4));
  Tensor w(Shape{16, 4});
  EXPECT_THROW(scc_forward(in, w, nullptr, map), Error);
}

TEST(SccValidation, DoutputShapeChecked) {
  const SCCConfig cfg = make_cfg(4, 8, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(151);
  Tensor in = random_uniform(make_nchw(1, 4, 4, 4), rng);
  Tensor w = random_uniform(Shape{8, 2}, rng);
  Tensor bad_dout(make_nchw(1, 8, 3, 3));
  EXPECT_THROW(
      scc_backward_input_centric(in, w, bad_dout, map, true, false), Error);
}

TEST(SccValidation, BackwardWithoutDinputSkipsAllocation) {
  const SCCConfig cfg = make_cfg(4, 8, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(157);
  Tensor in = random_uniform(make_nchw(1, 4, 4, 4), rng);
  Tensor w = random_uniform(Shape{8, 2}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);
  const SCCGrads g =
      scc_backward_input_centric(in, w, dout, map, false, false);
  EXPECT_FALSE(g.dinput.defined());
  EXPECT_FALSE(g.dbias.defined());
  EXPECT_TRUE(g.dweight.defined());
}

// ---- determinism ------------------------------------------------------------------

TEST(SccDeterminism, ForwardAndBackwardAreBitStable) {
  const SCCConfig cfg = make_cfg(8, 16, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(163);
  Tensor in = random_uniform(make_nchw(2, 8, 6, 6), rng);
  Tensor w = random_uniform(Shape{16, 4}, rng);
  Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);

  const Tensor out1 = scc_forward(in, w, nullptr, map);
  const Tensor out2 = scc_forward(in, w, nullptr, map);
  EXPECT_FLOAT_EQ(max_abs_diff(out1, out2), 0.0f);

  const SCCGrads g1 = scc_backward_input_centric(in, w, dout, map, true, false);
  const SCCGrads g2 = scc_backward_input_centric(in, w, dout, map, true, false);
  EXPECT_FLOAT_EQ(max_abs_diff(g1.dinput, g2.dinput), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(g1.dweight, g2.dweight), 0.0f);
}

TEST(SccDeterminism, InputCentricBackwardBitIdenticalAcrossPools) {
  // Training shape (C = 8, N = 32, 32x32): every backward launch is large
  // enough to be chunked, and one thread or four give the same bits.
  const SCCConfig cfg = make_cfg(8, 16, 2, 0.5);
  ChannelWindowMap map(cfg);
  Rng rng(431);
  const Tensor in = random_uniform(make_nchw(32, 8, 32, 32), rng);
  const Tensor w = random_uniform(Shape{16, 4}, rng);
  const Tensor dout = random_uniform(scc_output_shape(in.shape(), map), rng);
  const auto [serial, parallel] = testing::serial_and_parallel(
      {"scc_dweight", "scc_dinput_input_centric"}, [&] {
        return scc_backward_input_centric(in, w, dout, map, true, true);
      });
  EXPECT_TRUE(testing::bit_identical(serial.dinput, parallel.dinput));
  EXPECT_TRUE(testing::bit_identical(serial.dweight, parallel.dweight));
  EXPECT_TRUE(testing::bit_identical(serial.dbias, parallel.dbias));
}

// ---- memory: channel-cyclic optimization (paper Fig. 10 mechanism) ---------------

TEST(SccMemory, CyclicOptReducesConvStackPeak) {
  // With Cout >> cyclic_dist the conv-stack without CC materialises Cout
  // windows, with CC only cyclic_dist of them.
  const SCCConfig cfg = make_cfg(16, 64, 2, 0.5);  // dist = 16/gcd(4,16) = 4
  ChannelWindowMap map(cfg);
  ASSERT_LT(map.cyclic_dist(), cfg.out_channels);
  Rng rng(167);
  Tensor in = random_uniform(make_nchw(2, 16, 12, 12), rng);
  Tensor w = random_uniform(Shape{64, 8}, rng);

  int64_t peak_no_cc = 0, peak_cc = 0;
  {
    const ConvStackSCC impl(cfg, /*cyclic_opt=*/false);
    PeakMemoryScope scope;
    const Tensor out = impl.forward(in, w, nullptr);
    peak_no_cc = scope.peak_delta();
  }
  {
    const ConvStackSCC impl(cfg, /*cyclic_opt=*/true);
    PeakMemoryScope scope;
    const Tensor out = impl.forward(in, w, nullptr);
    peak_cc = scope.peak_delta();
  }
  EXPECT_LT(peak_cc, peak_no_cc / 2)
      << "CC optimization should cut conv-stack peak memory by far more "
         "than half at Cout/dist = "
      << cfg.out_channels / map.cyclic_dist();
}

}  // namespace
}  // namespace dsx::scc
