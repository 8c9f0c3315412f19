// Tests for the training-framework extensions: Adam, Dropout, named
// checkpoints and the no-cycle-table SCC forward ablation.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "core/scc_kernels.hpp"
#include "models/mobilenet.hpp"
#include "nn/adam.hpp"
#include "nn/bn_folding.hpp"
#include "nn/checkpoint.hpp"
#include "nn/containers.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "nn/trainer.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_utils.hpp"

namespace dsx::nn {
namespace {

// ---- Adam ----------------------------------------------------------------

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, step 1 moves by ~lr * sign(grad) regardless of
  // gradient magnitude.
  Adam opt({.lr = 0.1f});
  Param p = Param::create("w", Tensor(Shape{2}, 1.0f));
  p.grad[0] = 0.5f;
  p.grad[1] = -3.0f;
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f, 1e-4f);
  EXPECT_NEAR(p.value[1], 1.0f + 0.1f, 1e-4f);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (w - 3)^2.
  Adam opt({.lr = 0.1f});
  Param p = Param::create("w", Tensor(Shape{1}, 0.0f));
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Adam, DecoupledWeightDecayRespectsFlag) {
  Adam opt({.lr = 1.0f, .weight_decay = 0.1f});
  Param decayed = Param::create("w", Tensor(Shape{1}, 1.0f), true);
  Param plain = Param::create("b", Tensor(Shape{1}, 1.0f), false);
  opt.step({&decayed, &plain});  // zero grads
  EXPECT_NEAR(decayed.value[0], 0.9f, 1e-5f);
  EXPECT_FLOAT_EQ(plain.value[0], 1.0f);
}

TEST(Adam, ResetStateClearsMoments) {
  Adam opt({.lr = 0.1f});
  Param p = Param::create("w", Tensor(Shape{1}, 0.0f));
  p.grad[0] = 1.0f;
  opt.step({&p});
  opt.reset_state();
  EXPECT_EQ(opt.step_count(), 0);
}

TEST(Adam, TrainsTinyClassifier) {
  Rng rng(1);
  Sequential model;
  model.emplace<Flatten>();
  model.emplace<Linear>(4, 2, rng, true);
  Adam opt({.lr = 0.05f});
  Tensor x(make_nchw(8, 1, 2, 2));
  std::vector<int32_t> y(8);
  for (int64_t i = 0; i < 8; ++i) {
    y[static_cast<size_t>(i)] = static_cast<int32_t>(i % 2);
    for (int64_t j = 0; j < 4; ++j) {
      x[i * 4 + j] = (i % 2 == 0 ? 1.0f : -1.0f) + rng.normal(0.0f, 0.1f);
    }
  }
  SGD dummy({});
  Trainer trainer(model, dummy);
  for (int step = 0; step < 40; ++step) {
    trainer.forward_backward(x, y);
    opt.step(model.params());
  }
  EXPECT_GE(trainer.evaluate(x, y).accuracy, 0.99);
}

// ---- Dropout -------------------------------------------------------------

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5f, 7);
  Rng rng(2);
  Tensor x = random_uniform(make_nchw(1, 2, 3, 3), rng);
  Tensor y = drop.forward(x, /*training=*/false);
  EXPECT_TRUE(y.shares_storage_with(x));
}

TEST(Dropout, TrainingZerosRoughlyPFraction) {
  Dropout drop(0.3f, 11);
  Tensor x(Shape{4000}, 1.0f);
  Tensor y = drop.forward(x.reshape(make_nchw(1, 1, 40, 100)), true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.0f / 0.7f, 1e-5f);  // inverted scaling
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.3, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5f, 13);
  Rng rng(3);
  Tensor x = random_uniform(make_nchw(1, 1, 8, 8), rng, 0.5f, 1.0f);
  Tensor y = drop.forward(x, true);
  Tensor dy(y.shape(), 1.0f);
  Tensor dx = drop.backward(dy);
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      EXPECT_EQ(dx[i], 0.0f);
    } else {
      EXPECT_NEAR(dx[i], 2.0f, 1e-5f);  // 1/(1-0.5)
    }
  }
}

TEST(Dropout, ZeroProbabilityIsPassThrough) {
  Dropout drop(0.0f, 17);
  Tensor x(make_nchw(1, 1, 2, 2), 3.0f);
  Tensor y = drop.forward(x, true);
  EXPECT_TRUE(y.shares_storage_with(x));
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(Dropout(-0.1f, 1), Error);
  EXPECT_THROW(Dropout(1.0f, 1), Error);
}

// ---- checkpoints -----------------------------------------------------------

std::unique_ptr<Sequential> make_ckpt_model(uint64_t seed) {
  Rng rng(seed);
  auto m = std::make_unique<Sequential>();
  m->emplace<Conv2d>(3, 8, 3, 1, 1, 1, rng, true);
  m->emplace<BatchNorm2d>(8);
  m->emplace<ReLU>();
  m->emplace<GlobalAvgPool>();
  m->emplace<Flatten>();
  m->emplace<Linear>(8, 4, rng, true);
  return m;
}

TEST(Checkpoint, RoundTripRestoresPredictions) {
  auto src = make_ckpt_model(21);
  auto dst = make_ckpt_model(99);  // different init
  Rng rng(4);
  Tensor x = random_uniform(make_nchw(2, 3, 8, 8), rng);
  const Tensor want = src->forward(x, false);
  ASSERT_GT(max_abs_diff(dst->forward(x, false), want), 1e-3f);

  std::stringstream blob;
  save_checkpoint(*src, blob);
  load_checkpoint(*dst, blob);
  EXPECT_LT(max_abs_diff(dst->forward(x, false), want), 1e-6f);
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  auto src = make_ckpt_model(21);
  Rng rng(5);
  Sequential other;
  other.emplace<Flatten>();
  other.emplace<Linear>(4, 2, rng);
  std::stringstream blob;
  save_checkpoint(*src, blob);
  EXPECT_THROW(load_checkpoint(other, blob), Error);
}

TEST(Checkpoint, RejectsShapeMismatch) {
  Rng rng(6);
  Sequential a, b;
  a.emplace<Linear>(4, 2, rng, true);
  b.emplace<Linear>(4, 3, rng, true);
  std::stringstream blob;
  save_checkpoint(a, blob);
  EXPECT_THROW(load_checkpoint(b, blob), Error);
}

TEST(Checkpoint, RoundTripCarriesBatchNormRunningStatistics) {
  auto src = make_ckpt_model(21);
  auto dst = make_ckpt_model(21);  // same params, initial statistics
  Rng rng(7);
  (void)src->forward(random_uniform(make_nchw(4, 3, 8, 8), rng), true);
  const Tensor x = random_uniform(make_nchw(2, 3, 8, 8), rng);
  const Tensor want = src->forward(x, false);
  ASSERT_GT(max_abs_diff(dst->forward(x, false), want), 1e-4f);

  std::stringstream blob;
  save_checkpoint(*src, blob);
  load_checkpoint(*dst, blob);
  EXPECT_TRUE(testing::bit_identical(dst->forward(x, false), want));
}

TEST(Checkpoint, RejectsVersion1FormatWithAClearError) {
  // Version 1: magic "DSXC", then parameters only. Reading it as current
  // would serve the builder's BatchNorm statistics, so it is refused.
  auto model = make_ckpt_model(21);
  std::stringstream blob;
  blob.write("DSXC", 4);
  const uint64_t count = model->params().size();
  blob.write(reinterpret_cast<const char*>(&count), sizeof(count));
  try {
    load_checkpoint(*model, blob);
    FAIL() << "version-1 checkpoint accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsForeignVersion) {
  auto model = make_ckpt_model(21);
  std::stringstream blob;
  save_checkpoint(*model, blob);
  std::string bytes = blob.str();
  const int64_t future = 99;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  std::stringstream tampered(bytes);
  EXPECT_THROW(load_checkpoint(*model, tampered), Error);
}

TEST(Checkpoint, RejectsGarbage) {
  auto model = make_ckpt_model(21);
  std::stringstream blob("not a checkpoint at all, sorry");
  EXPECT_THROW(load_checkpoint(*model, blob), Error);
}

/// Conv -> BN -> SCC classifier for the quantized round-trip (quantization
/// replaces the SCCConv, leaving the conv/linear floats checkpointable).
std::unique_ptr<Sequential> make_scc_ckpt_model(uint64_t seed) {
  Rng rng(seed);
  auto m = std::make_unique<Sequential>();
  m->emplace<Conv2d>(3, 8, 3, 1, 1, 1, rng, true);
  m->emplace<BatchNorm2d>(8);
  m->emplace<ReLU>();
  m->emplace<SCCConv>(
      scc::SCCConfig{.in_channels = 8, .out_channels = 16, .groups = 2,
                     .overlap = 0.5, .stride = 1},
      rng);
  m->emplace<ReLU>();
  m->emplace<GlobalAvgPool>();
  m->emplace<Flatten>();
  m->emplace<Linear>(16, 4, rng, true);
  return m;
}

TEST(Checkpoint, RoundTripOnQuantizedModel) {
  // Two identically quantized models (same float source, same calibration):
  // after scrambling dst's remaining float params, loading src's checkpoint
  // must restore agreement. QuantSCCConv itself carries no Params, so the
  // checkpoint covers exactly the float remainder - and the round trip must
  // tolerate the param list the quantized layer does NOT contribute.
  Rng crng(61);
  const Tensor calib = random_uniform(make_nchw(4, 3, 8, 8), crng);
  auto src = make_scc_ckpt_model(60);
  fold_batchnorm(*src);
  quant::quantize_scc_layers(*src, calib);
  auto dst = make_scc_ckpt_model(60);  // same seed: identical int8 banks
  fold_batchnorm(*dst);
  quant::quantize_scc_layers(*dst, calib);

  for (Param* p : dst->params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] += 0.5f;
  }
  Rng xrng(62);
  Tensor x = random_uniform(make_nchw(2, 3, 8, 8), xrng);
  const Tensor want = src->forward(x, false);
  ASSERT_GT(max_abs_diff(dst->forward(x, false), want), 1e-3f);

  std::stringstream blob;
  save_checkpoint(*src, blob);
  load_checkpoint(*dst, blob);
  EXPECT_LT(max_abs_diff(dst->forward(x, false), want), 1e-6f);
}

TEST(Checkpoint, RoundTripOnClonedModel) {
  // clone() must preserve parameter names/shapes well enough that a source
  // checkpoint loads into a clone (deploy replicates plans this way).
  auto src = make_scc_ckpt_model(63);
  auto clone = src->clone_sequential();
  for (Param* p : clone->params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] -= 0.25f;
  }
  Rng xrng(64);
  Tensor x = random_uniform(make_nchw(2, 3, 8, 8), xrng);
  const Tensor want = src->forward(x, false);
  ASSERT_GT(max_abs_diff(clone->forward(x, false), want), 1e-3f);

  std::stringstream blob;
  save_checkpoint(*src, blob);
  load_checkpoint(*clone, blob);
  EXPECT_LT(max_abs_diff(clone->forward(x, false), want), 1e-6f);

  // And the reverse direction: a clone's checkpoint loads into the source.
  std::stringstream blob2;
  save_checkpoint(*clone, blob2);
  load_checkpoint(*src, blob2);
  EXPECT_LT(max_abs_diff(src->forward(x, false), clone->forward(x, false)),
            1e-6f);
}

TEST(Checkpoint, RejectsTruncatedFile) {
  auto src = make_ckpt_model(65);
  std::stringstream blob;
  save_checkpoint(*src, blob);
  const std::string bytes = blob.str();
  // Cut inside the magic, the count, a name, and the tensor payload; every
  // prefix must be rejected, never silently half-load.
  for (const size_t cut : {size_t{2}, size_t{10}, size_t{17},
                           bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    auto dst = make_ckpt_model(66);
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(load_checkpoint(*dst, truncated), Error) << "cut=" << cut;
  }
}

TEST(Checkpoint, RejectsCorruptedHeaderFields) {
  auto src = make_ckpt_model(67);
  std::stringstream blob;
  save_checkpoint(*src, blob);
  const std::string bytes = blob.str();

  // Corrupt the magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0x40;
    auto dst = make_ckpt_model(68);
    std::stringstream is(bad);
    EXPECT_THROW(load_checkpoint(*dst, is), Error);
  }
  // Corrupt the param count (bytes 4..11).
  {
    std::string bad = bytes;
    bad[4] = static_cast<char>(bad[4] + 1);
    auto dst = make_ckpt_model(68);
    std::stringstream is(bad);
    EXPECT_THROW(load_checkpoint(*dst, is), Error);
  }
  // Corrupt the first name-length field (bytes 12..15): either an
  // implausible length or a name mismatch, both rejected.
  {
    std::string bad = bytes;
    bad[13] = static_cast<char>(0x7f);
    auto dst = make_ckpt_model(68);
    std::stringstream is(bad);
    EXPECT_THROW(load_checkpoint(*dst, is), Error);
  }
}

TEST(Checkpoint, WorksOnFullMobileNet) {
  Rng rng(7);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWSCC;
  cfg.cg = 2;
  cfg.co = 0.5;
  cfg.width_mult = 0.125;
  auto src = models::build_mobilenet(4, cfg, rng);
  Rng rng2(8);
  auto dst = models::build_mobilenet(4, cfg, rng2);

  std::stringstream blob;
  save_checkpoint(*src, blob);
  load_checkpoint(*dst, blob);
  Rng drng(9);
  Tensor x = random_uniform(make_nchw(1, 3, 16, 16), drng);
  EXPECT_LT(max_abs_diff(dst->forward(x, false), src->forward(x, false)),
            1e-6f);
}

// ---- no-cycle-table SCC ablation ---------------------------------------------

TEST(SccCycleTableAblation, VariantsAreNumericallyIdentical) {
  for (const double co : {0.0, 0.25, 0.5, 1.0 / 3.0}) {
    scc::SCCConfig cfg;
    cfg.in_channels = 12;
    cfg.out_channels = 30;
    cfg.groups = 3;
    cfg.overlap = co;
    const scc::ChannelWindowMap map(cfg);
    Rng rng(10);
    const Tensor x = random_uniform(make_nchw(2, 12, 5, 5), rng);
    const Tensor w = random_uniform(Shape{30, map.group_width()}, rng);
    const Tensor b = random_uniform(Shape{30}, rng);
    const Tensor with_table = scc::scc_forward(x, w, &b, map);
    const Tensor without = scc::scc_forward_no_cycle_table(x, w, &b, map);
    EXPECT_FLOAT_EQ(max_abs_diff(with_table, without), 0.0f) << "co=" << co;
  }
}

}  // namespace
}  // namespace dsx::nn
