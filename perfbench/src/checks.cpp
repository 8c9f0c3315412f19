#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "data/synth.hpp"
#include "nn/layers_conv.hpp"
#include "tensor/random.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {

namespace {

using dsx::Shape;
using dsx::Tensor;

// The BatchNorm calibration set: fixed, not --seed.
constexpr uint64_t kCalibSeed = 77;
constexpr int64_t kCalibBatch = 8;
constexpr int64_t kCalibBatches = 16;

struct SccPoint {
  int64_t cin, cout, cg;
  double co;
  int64_t stride;
};

// Paper §III: filter f reads gw = Cin/cg consecutive input channels starting
// at f * (gw - overlap), where overlap = co * gw channels (rounded), and the
// channel axis wraps around. out[n,f,y,x] = sum_k W[f,k] * in[n, ch(f,k),
// y*stride, x*stride] + b[f].
Tensor naive_scc_forward(const Tensor& in, const Tensor& weight,
                         const Tensor& bias, const SccPoint& p) {
  const int64_t gw = p.cin / p.cg;
  const int64_t overlap = std::llround(p.co * static_cast<double>(gw));
  const int64_t step = gw - overlap;
  const Shape& s = in.shape();
  const int64_t ho = (s.h() - 1) / p.stride + 1;
  const int64_t wo = (s.w() - 1) / p.stride + 1;
  Tensor out(dsx::make_nchw(s.n(), p.cout, ho, wo));
  for (int64_t n = 0; n < s.n(); ++n) {
    for (int64_t f = 0; f < p.cout; ++f) {
      const int64_t start = (f * step) % p.cin;
      for (int64_t y = 0; y < ho; ++y) {
        for (int64_t x = 0; x < wo; ++x) {
          double acc = bias[f];
          for (int64_t k = 0; k < gw; ++k) {
            const int64_t c = (start + k) % p.cin;
            acc += static_cast<double>(weight[f * gw + k]) *
                   static_cast<double>(in.at(n, c, y * p.stride, x * p.stride));
          }
          out.at(n, f, y, x) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

/// Largest |a - b| / (1 + |b|) over two same-shaped tensors; +inf on a
/// shape mismatch.
double max_rel_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return INFINITY;
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]) /
                     (1.0 + std::fabs(static_cast<double>(b[i])));
    worst = std::max(worst, d);
  }
  return worst;
}

/// Logits of the unfolded, unfused eval-mode forward of `model` with every
/// SCC layer on the channel-stack composition, one vector per image.
std::vector<std::vector<float>> reference_logits(
    const dsx::nn::Sequential& model, const std::vector<Tensor>& images) {
  auto ref = model.clone_sequential();
  ref->for_each_layer([](dsx::nn::Layer& l) {
    if (auto* scc = dynamic_cast<dsx::nn::SCCConv*>(&l)) {
      scc->set_impl(dsx::nn::SCCImpl::kChannelStack);
    }
  });
  std::vector<std::vector<float>> out;
  for (const Tensor& img : images) {
    const Tensor y = ref->forward(img, /*training=*/false);
    out.emplace_back(y.data(), y.data() + y.numel());
  }
  return out;
}

bool within_tolerance(const float* got, const std::vector<float>& want) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <=
          ReplyChecker::kAbsTol + ReplyChecker::kRelTol * std::fabs(want[i]))) {
      return false;
    }
  }
  return true;
}

double dot(const Tensor& a, const Tensor& b) {
  double s = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

}  // namespace

void check_scc_forward(Report& report) {
  const SccPoint points[] = {{16, 32, 2, 0.5, 1}, {12, 18, 4, 1.0 / 3.0, 2}};
  for (const SccPoint& p : points) {
    dsx::Rng rng(5);
    dsx::scc::SCCConfig cfg{.in_channels = p.cin,
                            .out_channels = p.cout,
                            .groups = p.cg,
                            .overlap = p.co,
                            .stride = p.stride};
    dsx::nn::SCCConv layer(cfg, rng, /*bias=*/true, dsx::nn::SCCImpl::kFused);
    dsx::fill_uniform(layer.bias_param()->value, rng, -0.5f, 0.5f);
    const Tensor in =
        dsx::random_uniform(dsx::make_nchw(2, p.cin, 7, 5), rng, -1.0f, 1.0f);
    const Tensor want = naive_scc_forward(in, layer.weight_param().value,
                                          layer.bias_param()->value, p);
    const Tensor train_out = layer.forward(in, /*training=*/false);
    dsx::Workspace ws;
    const Tensor serve_out = layer.forward_inference(in, ws).clone();
    const double err =
        std::max(max_rel_diff(train_out, want), max_rel_diff(serve_out, want));
    std::ostringstream os;
    os << "fused SCC forward == naive sliding-window loop, " << cfg.to_string()
       << " (max rel err " << err << " <= 1e-5)";
    report.check(err <= 1e-5, os.str());
  }
}

void check_scc_backward(Report& report) {
  dsx::Rng rng(9);
  const dsx::scc::SCCConfig cfg{
      .in_channels = 4, .out_channels = 6, .groups = 2, .overlap = 0.5};
  dsx::nn::SCCConv layer(cfg, rng, /*bias=*/false, dsx::nn::SCCImpl::kFused);
  Tensor in = dsx::random_uniform(dsx::make_nchw(2, 4, 3, 3), rng, -1.0f, 1.0f);
  const Tensor g = dsx::random_uniform(dsx::make_nchw(2, 6, 3, 3), rng, -1.0f,
                                       1.0f);
  Tensor& weight = layer.weight_param().value;

  // Analytic gradients of L = <forward(in), g>.
  layer.weight_param().zero_grad();
  (void)layer.forward(in.clone(), /*training=*/true);
  const Tensor dinput = layer.backward(g);
  const Tensor dweight = layer.weight_param().grad.clone();

  auto loss = [&] { return dot(layer.forward(in, /*training=*/false), g); };
  const float eps = 1e-2f;
  auto central = [&](Tensor& t, int64_t i) {
    const float saved = t[i];
    t[i] = saved + eps;
    const double up = loss();
    t[i] = saved - eps;
    const double down = loss();
    t[i] = saved;
    return (up - down) / (2.0 * eps);
  };
  double worst = 0.0;
  for (int64_t i = 0; i < in.numel(); ++i) {
    worst = std::max(worst, std::fabs(central(in, i) - dinput[i]) /
                                (1.0 + std::fabs(static_cast<double>(dinput[i]))));
  }
  for (int64_t i = 0; i < weight.numel(); ++i) {
    worst = std::max(worst, std::fabs(central(weight, i) - dweight[i]) /
                                (1.0 + std::fabs(static_cast<double>(dweight[i]))));
  }
  std::ostringstream os;
  os << "SCC backward dinput/dweight == central differences, "
     << cfg.to_string() << " (max rel err " << worst << " <= 1e-3)";
  report.check(worst <= 1e-3, os.str());
}

void calibrate_batchnorm(dsx::nn::Sequential& model) {
  const dsx::data::Dataset calib = dsx::data::make_synth_cifar(
      kCalibBatch * kCalibBatches, kCalibSeed, kImage, kChannels, kClasses);
  const int64_t per = kChannels * kImage * kImage;
  for (int64_t b = 0; b < kCalibBatches; ++b) {
    Tensor batch(dsx::make_nchw(kCalibBatch, kChannels, kImage, kImage));
    std::memcpy(batch.data(), calib.images.data() + b * kCalibBatch * per,
                static_cast<size_t>(kCalibBatch * per) * sizeof(float));
    (void)model.forward(batch, /*training=*/true);
  }
}

std::vector<Tensor> make_images(int64_t count, uint64_t seed) {
  const dsx::data::Dataset ds =
      dsx::data::make_synth_cifar(count, seed, kImage, kChannels, kClasses);
  const int64_t per = kChannels * kImage * kImage;
  std::vector<Tensor> images;
  for (int64_t i = 0; i < count; ++i) {
    Tensor img(dsx::make_nchw(1, kChannels, kImage, kImage));
    std::memcpy(img.data(), ds.images.data() + i * per,
                static_cast<size_t>(per) * sizeof(float));
    images.push_back(std::move(img));
  }
  return images;
}

ReplyChecker::ReplyChecker(const dsx::nn::Sequential& model,
                           const dsx::nn::Sequential& stats_lost,
                           const std::vector<Tensor>& images)
    : reference_(reference_logits(model, images)),
      stats_lost_(reference_logits(stats_lost, images)),
      first_reply_(images.size()) {
  min_fault_gap_ = INFINITY;
  for (size_t i = 0; i < images.size(); ++i) {
    float gap = 0.0f;
    for (size_t k = 0; k < reference_[i].size(); ++k) {
      gap = std::max(gap, std::fabs(reference_[i][k] - stats_lost_[i][k]));
    }
    min_fault_gap_ = std::min(min_fault_gap_, gap);
  }
}

ReplyChecker::Verdict ReplyChecker::verify(size_t index, const Tensor& logits) {
  const std::vector<float>& want = reference_.at(index);
  if (!logits.defined() ||
      logits.numel() != static_cast<int64_t>(want.size())) {
    return Verdict::kWrong;
  }
  const float* got = logits.data();
  Verdict v = Verdict::kWrong;
  if (within_tolerance(got, want)) {
    v = Verdict::kPass;
  } else if (within_tolerance(got, stats_lost_[index])) {
    v = Verdict::kStoreFault;
  }
  float worst = 0.0f;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, std::fabs(got[i] - want[i]));
  }
  std::lock_guard<std::mutex> lock(mu_);
  max_abs_error_ = std::max(max_abs_error_, worst);
  std::vector<float>& first = first_reply_[index];
  if (first.empty()) {
    first.assign(got, got + want.size());
  } else if (std::memcmp(first.data(), got, want.size() * sizeof(float)) != 0) {
    v = Verdict::kWrong;
  }
  return v;
}

float ReplyChecker::max_abs_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_abs_error_;
}

}  // namespace perfbench
