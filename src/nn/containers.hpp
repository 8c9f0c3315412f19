// Layer containers: Sequential chains and Residual blocks.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dsx::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for chaining.
  Sequential& add(LayerPtr layer);
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  size_t size() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_.at(i); }
  const Layer& layer(size_t i) const { return *layers_.at(i); }
  /// Swaps out layer `i` (used by inference transforms such as BN folding).
  void replace_layer(size_t i, LayerPtr layer);
  /// Removes layer `i` (used by serve compilation to strip Identity
  /// placeholders left behind by BN folding).
  void erase_layer(size_t i);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Tensor forward_inference(const Tensor& input, Workspace& ws) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<Buffer>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override { return "Sequential"; }
  std::unique_ptr<Layer> clone() const override;
  /// Typed deep copy (clone() erases to Layer; replica compilation needs
  /// the Sequential type back).
  std::unique_ptr<Sequential> clone_sequential() const;

  /// Applies fn to every layer recursively (containers descend).
  void for_each_layer(const std::function<void(Layer&)>& fn);

 private:
  std::vector<LayerPtr> layers_;
};

/// y = ReLU(main(x) + shortcut(x)); identity shortcut when none is given.
class Residual final : public Layer {
 public:
  Residual(LayerPtr main, LayerPtr shortcut /* may be null */);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Tensor forward_inference(const Tensor& input, Workspace& ws) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<Buffer>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override { return "Residual"; }
  std::unique_ptr<Layer> clone() const override;

  Layer& main() { return *main_; }
  Layer* shortcut() { return shortcut_.get(); }

 private:
  LayerPtr main_;
  LayerPtr shortcut_;
  Tensor cached_pre_relu_;
};

}  // namespace dsx::nn
