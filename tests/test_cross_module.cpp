// Cross-module integration tests: the extension modules composed the way a
// deployment pipeline would actually chain them (prune -> quantize, BN
// folding through shift blocks, checkpointing parameter-free layers,
// per-layer allocation on a real model plan, implementation switching).
#include <gtest/gtest.h>

#include "data/synth.hpp"
#include "explore/design_space.hpp"
#include "models/mobilenet.hpp"
#include "nn/bn_folding.hpp"
#include "nn/checkpoint.hpp"
#include "nn/layers_conv.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "prune/prune.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_utils.hpp"

namespace dsx {
namespace {

TEST(PruneThenQuantize, ZerosSurviveQuantizationExactly) {
  // A pruned weight has exact zeros; int8 quantization must keep them at
  // code 0, so the compression stack composes without densifying.
  scc::SCCConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 16;
  cfg.groups = 2;
  cfg.overlap = 0.5;
  Rng rng(131);
  nn::SCCConv layer(cfg, rng);
  auto params = layer.params();
  prune::Pruner pruner = prune::Pruner::magnitude(params, 0.5);
  const double sparsity_before =
      prune::measured_sparsity(layer.weight_param().value);

  quant::QuantSCCConv qlayer(layer, 0.01f);
  const Tensor requantized = quant::dequantize(qlayer.qweight());
  EXPECT_DOUBLE_EQ(prune::measured_sparsity(requantized), sparsity_before);
}

TEST(PruneThenQuantize, WholePipelineKeepsModelRunnable) {
  Rng rng(137);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWSCC;
  cfg.cg = 2;
  cfg.co = 0.5;
  cfg.width_mult = 0.125;
  auto model = models::build_mobilenet(4, cfg, rng);

  data::Dataset ds = data::make_synth_cifar(8, 139, 16, 3, 4);
  nn::SGD opt({.lr = 0.05f});
  nn::Trainer trainer(*model, opt);
  trainer.train_batch(ds.images, ds.labels);

  auto params = model->params();
  prune::Pruner pruner = prune::Pruner::global_magnitude(params, 0.5);
  nn::fold_batchnorm(*model);
  const quant::QuantizeReport report =
      quant::quantize_scc_layers(*model, ds.images);
  EXPECT_EQ(report.layers_quantized, 13);

  const Tensor logits = model->forward(ds.images, false);
  EXPECT_EQ(logits.shape(), (Shape{8, 4}));
  for (int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits[i]));
  }
}

TEST(BnFolding, SkipsShiftStagesButFoldsSccStages) {
  // In Shift+SCC blocks the first BN follows a parameter-free shift - it
  // has nothing to fold into and must survive; the SCC->BN pairs fold.
  Rng rng(149);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kShiftSCC;
  cfg.cg = 2;
  cfg.co = 0.5;
  nn::Sequential seq;
  models::append_conv_block(seq, 8, 16, 3, 1, 1, cfg, rng);
  models::append_conv_block(seq, 16, 16, 3, 1, 1, cfg, rng);

  // Realistic BN statistics from a few training steps.
  Rng data(151);
  const Tensor x = random_uniform(make_nchw(4, 8, 8, 8), data);
  for (int i = 0; i < 3; ++i) {
    const Tensor y = seq.forward(x, true);
    seq.backward(y);
  }
  const Tensor before = seq.forward(x, false);
  const int folded = nn::fold_batchnorm(seq);
  EXPECT_EQ(folded, 2);  // only the two SCC->BN pairs
  const Tensor after = seq.forward(x, false);
  EXPECT_LT(max_abs_diff(before, after), 2e-4f);
}

TEST(Checkpoint, RoundTripsModelsWithParameterFreeLayers) {
  // Shift / shuffle layers own no tensors; save/load must still line up.
  Rng rng_a(157), rng_b(157);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWGPWShuffle;
  cfg.cg = 2;
  cfg.width_mult = 0.125;
  auto source = models::build_mobilenet(4, cfg, rng_a);
  auto target = models::build_mobilenet(4, cfg, rng_b);

  // Diverge the source, then restore into the target.
  Rng data(159);
  const Tensor x = random_uniform(make_nchw(2, 3, 16, 16), data);
  nn::SGD opt({.lr = 0.1f});
  nn::Trainer trainer(*source, opt);
  std::vector<int32_t> labels = {0, 1};
  trainer.train_batch(x, labels);

  const std::string path = ::testing::TempDir() + "shuffle_model.ckpt";
  nn::save_checkpoint_file(*source, path);
  nn::load_checkpoint_file(*target, path);
  std::remove(path.c_str());

  // Checkpoints carry parameters and BN running statistics, so eval-mode
  // outputs match, and so do training-mode ones (parameters + batch stats).
  EXPECT_TRUE(testing::bit_identical(source->forward(x, false),
                                     target->forward(x, false)));
  const Tensor a = source->forward(x, true);
  const Tensor b = target->forward(x, true);
  EXPECT_LT(max_abs_diff(a, b), 1e-6f);
}

TEST(PerLayerAllocation, WorksOnTheMobileNetBlockPlan) {
  // Fusion sites of MobileNet-v1 at width 0.25 on 32x32 inputs: channel
  // plan {64..1024} scaled, spatial halving at the stride-2 blocks.
  const std::vector<std::pair<int64_t, int64_t>> plan = {
      {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},  {512, 2}, {512, 1},
      {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1}};
  std::vector<explore::LayerSite> sites;
  int64_t in_c = 8, spatial = 32;
  for (const auto& [out, stride] : plan) {
    if (stride == 2) spatial /= 2;
    const int64_t out_c = std::max<int64_t>(8, out / 4);
    sites.push_back({in_c, out_c, spatial});
    in_c = out_c;
  }

  const std::vector<int64_t> cgs = {1, 2, 4, 8};
  double full = 0.0;
  for (const auto& s : sites) full += explore::site_mmacs(s, 1);
  const explore::Allocation alloc =
      explore::allocate_per_layer(sites, cgs, full / 3.0);
  EXPECT_LE(alloc.total_mmacs, full / 3.0);
  // Every assignment is valid for its site, and the budget forced real work.
  int64_t bumped = 0;
  for (size_t s = 0; s < sites.size(); ++s) {
    EXPECT_EQ(sites[s].in_channels % alloc.cg[s], 0);
    EXPECT_EQ(sites[s].out_channels % alloc.cg[s], 0);
    bumped += alloc.cg[s] > 1;
  }
  EXPECT_GT(bumped, 0);
}

TEST(ImplSwitch, GemmStackSwapsInAfterTraining) {
  // A model trained with fused kernels must produce identical predictions
  // after switching every SCC layer to the GEMM-stack implementation.
  Rng rng(163);
  models::SchemeConfig cfg;
  cfg.scheme = models::ConvScheme::kDWSCC;
  cfg.cg = 2;
  cfg.co = 0.5;
  cfg.width_mult = 0.125;
  auto model = models::build_mobilenet(4, cfg, rng);

  data::Dataset ds = data::make_synth_cifar(4, 167, 16, 3, 4);
  nn::SGD opt({.lr = 0.05f});
  nn::Trainer trainer(*model, opt);
  trainer.train_batch(ds.images, ds.labels);

  const Tensor fused = model->forward(ds.images, false);
  model->for_each_layer([](nn::Layer& layer) {
    if (auto* scc = dynamic_cast<nn::SCCConv*>(&layer)) {
      scc->set_impl(nn::SCCImpl::kGemmStack);
    }
  });
  const Tensor gemm = model->forward(ds.images, false);
  EXPECT_LT(max_abs_diff(fused, gemm), 1e-4f);
}

}  // namespace
}  // namespace dsx
