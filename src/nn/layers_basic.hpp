// Stateless / non-convolutional layers: ReLU, pooling, flatten, linear, BN.
#pragma once

#include <optional>

#include "nn/layer.hpp"
#include "ops/batchnorm.hpp"
#include "ops/pooling.hpp"
#include "tensor/random.hpp"

namespace dsx::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

 private:
  Tensor cached_input_;
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(int64_t kernel = 2, int64_t stride = 2);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "MaxPool2d"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(args_.kernel, args_.stride);
  }

 private:
  PoolArgs args_;
  Shape cached_input_shape_;
  MaxPoolResult cache_;
};

class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>();
  }

 private:
  Shape cached_input_shape_;
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "Flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  Shape cached_input_shape_;
};

class Linear final : public Layer {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  void collect_params(std::vector<Param*>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override { return "Linear"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Linear() = default;  // clone() only

  int64_t in_features_ = 0, out_features_ = 0;
  Param weight_, bias_;
  bool has_bias_ = false;
  Tensor cached_input_;
};

/// Inverted dropout: activations are zeroed with probability `p` during
/// training and scaled by 1/(1-p), so eval mode is the identity (the VGG
/// classifier recipe).
class Dropout final : public Layer {
 public:
  Dropout(float p, uint64_t seed);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "Dropout"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  float p_;
  Rng rng_;
  Tensor mask_;  // scaled keep-mask from the last training forward
};

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(int64_t channels);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  void collect_params(std::vector<Param*>& out) override;
  /// Running mean and variance.
  void collect_buffers(std::vector<Buffer>& out) override;
  Shape output_shape(const Shape& input) const override { return input; }
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override { return "BatchNorm2d"; }
  std::unique_ptr<Layer> clone() const override;

  int64_t channels() const { return channels_; }
  /// Learned affine + running statistics (read by BN folding).
  const BatchNormState& state() const { return state_; }

 private:
  int64_t channels_;
  BatchNormState state_;
  Param gamma_, beta_;  // views kept in sync with state_
  BatchNormCache cache_;
};

}  // namespace dsx::nn
