#include "nn/layers_basic.hpp"

#include <cstring>

#include "common/check.hpp"
#include "ops/activations.hpp"
#include "ops/linear.hpp"

namespace dsx::nn {

// ---- ReLU ------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  return relu_forward(input);
}

Tensor ReLU::backward(const Tensor& doutput) {
  DSX_REQUIRE(cached_input_.defined(), "ReLU::backward before forward");
  return relu_backward(doutput, cached_input_);
}

// ---- MaxPool2d ---------------------------------------------------------------

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride) {
  args_.kernel = kernel;
  args_.stride = stride;
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  cached_input_shape_ = input.shape();
  cache_ = maxpool2d_forward(input, args_);
  Tensor out = cache_.output;
  if (!training) cache_ = MaxPoolResult{};  // drop the argmax cache
  return out;
}

Tensor MaxPool2d::backward(const Tensor& doutput) {
  DSX_REQUIRE(!cache_.argmax.empty(), "MaxPool2d::backward before forward");
  return maxpool2d_backward(doutput, cache_, cached_input_shape_, args_);
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  return make_nchw(input.n(), input.c(),
                   conv_out_size(input.h(), args_.kernel, args_.stride, 0),
                   conv_out_size(input.w(), args_.kernel, args_.stride, 0));
}

// ---- GlobalAvgPool -----------------------------------------------------------

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  (void)training;
  cached_input_shape_ = input.shape();
  return global_avgpool_forward(input);
}

Tensor GlobalAvgPool::backward(const Tensor& doutput) {
  DSX_REQUIRE(cached_input_shape_.rank() == 4,
              "GlobalAvgPool::backward before forward");
  return global_avgpool_backward(doutput, cached_input_shape_);
}

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  return make_nchw(input.n(), input.c(), 1, 1);
}

// ---- Flatten -----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& input, bool training) {
  (void)training;
  cached_input_shape_ = input.shape();
  return input.reshape(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& doutput) {
  DSX_REQUIRE(cached_input_shape_.rank() == 4,
              "Flatten::backward before forward");
  return doutput.reshape(cached_input_shape_);
}

Shape Flatten::output_shape(const Shape& input) const {
  DSX_REQUIRE(input.rank() == 4, "Flatten expects NCHW input");
  return Shape{input.n(), input.c() * input.h() * input.w()};
}

// ---- Linear ------------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  Tensor w(Shape{out_features, in_features});
  fill_kaiming(w, rng, in_features);
  weight_ = Param::create("linear.weight", std::move(w));
  if (has_bias_) {
    bias_ = Param::create("linear.bias", Tensor(Shape{out_features}),
                          /*decay=*/false);
  }
}

Tensor Linear::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  return linear_forward(input, weight_.value,
                        has_bias_ ? &bias_.value : nullptr);
}

Tensor Linear::backward(const Tensor& doutput) {
  DSX_REQUIRE(cached_input_.defined(), "Linear::backward before forward");
  LinearGrads g = linear_backward(cached_input_, weight_.value, doutput,
                                  /*need_dinput=*/true, has_bias_);
  add_grad_inplace(weight_.grad, g.dweight);
  if (has_bias_) add_grad_inplace(bias_.grad, g.dbias);
  return g.dinput;
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::unique_ptr<Linear>(new Linear());
  copy->in_features_ = in_features_;
  copy->out_features_ = out_features_;
  copy->has_bias_ = has_bias_;
  copy->weight_ = clone_param(weight_);
  if (has_bias_) copy->bias_ = clone_param(bias_);
  return copy;
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Linear::output_shape(const Shape& input) const {
  DSX_REQUIRE(input.rank() == 2 && input.dim(1) == in_features_,
              "Linear: bad input shape " << input.to_string());
  return Shape{input.dim(0), out_features_};
}

scc::LayerCost Linear::cost(const Shape& input) const {
  (void)input;
  return scc::linear_cost(in_features_, out_features_, has_bias_);
}

// ---- Dropout -------------------------------------------------------------------

Dropout::Dropout(float p, uint64_t seed) : p_(p), rng_(seed) {
  DSX_REQUIRE(p >= 0.0f && p < 1.0f, "Dropout: p must be in [0, 1), got "
                                         << p);
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(p_, /*seed=*/0);
  copy->rng_ = rng_;  // carry the stream state so behavior is reproducible
  return copy;
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0f) return input;
  mask_ = Tensor(input.shape());
  const float scale = 1.0f / (1.0f - p_);
  for (int64_t i = 0; i < mask_.numel(); ++i) {
    mask_[i] = rng_.bernoulli(p_) ? 0.0f : scale;
  }
  Tensor out(input.shape());
  const float* in = input.data();
  const float* m = mask_.data();
  float* o = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) o[i] = in[i] * m[i];
  return out;
}

Tensor Dropout::backward(const Tensor& doutput) {
  DSX_REQUIRE(mask_.defined() && mask_.shape() == doutput.shape(),
              "Dropout::backward before forward (or eval-mode forward)");
  Tensor din(doutput.shape());
  const float* dy = doutput.data();
  const float* m = mask_.data();
  float* dx = din.data();
  for (int64_t i = 0; i < din.numel(); ++i) dx[i] = dy[i] * m[i];
  return din;
}

// ---- BatchNorm2d -------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int64_t channels)
    : channels_(channels), state_(BatchNormState::create(channels)) {
  // Params alias the state tensors (shared storage) so optimizer updates are
  // visible to the op.
  gamma_ = Param::create("bn.gamma", state_.gamma, /*decay=*/false);
  beta_ = Param::create("bn.beta", state_.beta, /*decay=*/false);
  state_.gamma = gamma_.value;
  state_.beta = beta_.value;
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  return batchnorm_forward(input, state_, training ? &cache_ : nullptr,
                           training);
}

Tensor BatchNorm2d::backward(const Tensor& doutput) {
  DSX_REQUIRE(cache_.xhat.defined(), "BatchNorm2d::backward before forward");
  BatchNormGrads g = batchnorm_backward(doutput, state_, cache_);
  add_grad_inplace(gamma_.grad, g.dgamma);
  add_grad_inplace(beta_.grad, g.dbeta);
  return g.dinput;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(channels_);
  // Copy element data into the freshly constructed state tensors instead of
  // reassigning them: gamma/beta share storage with the Param views, and a
  // tensor reassignment would break that aliasing.
  const auto copy_into = [](Tensor& dst, const Tensor& src) {
    std::memcpy(dst.data(), src.data(), static_cast<size_t>(src.size_bytes()));
  };
  copy_into(copy->state_.gamma, state_.gamma);
  copy_into(copy->state_.beta, state_.beta);
  copy_into(copy->state_.running_mean, state_.running_mean);
  copy_into(copy->state_.running_var, state_.running_var);
  return copy;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<Buffer>& out) {
  out.push_back({"bn.running_mean", state_.running_mean});
  out.push_back({"bn.running_var", state_.running_var});
}

scc::LayerCost BatchNorm2d::cost(const Shape& input) const {
  (void)input;
  return scc::batchnorm_cost(channels_);
}

}  // namespace dsx::nn
