#include "nn/containers.hpp"

#include "common/check.hpp"
#include "device/launch.hpp"
#include "obs/trace.hpp"
#include "ops/activations.hpp"
#include "tensor/tensor_ops.hpp"

namespace dsx::nn {

// ---- Sequential ---------------------------------------------------------------

Sequential& Sequential::add(LayerPtr layer) {
  DSX_REQUIRE(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::replace_layer(size_t i, LayerPtr layer) {
  DSX_REQUIRE(i < layers_.size(), "Sequential::replace_layer: index " << i
                                      << " out of range");
  DSX_REQUIRE(layer != nullptr, "Sequential::replace_layer: null layer");
  layers_[i] = std::move(layer);
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x, training);
  return x;
}

Tensor Sequential::forward_inference(const Tensor& input, Workspace& ws) {
  Tensor x = input;
  // Per-layer timing for dsx::obs request traces: the serving tier installs
  // a thread-local sink around CompiledModel::run for batches that are
  // head-sampled (DSX_TRACE) or flight-recorded (obs::flight, on by
  // default; null otherwise - one thread-local load per forward). The timed loop
  // calls the exact same layer sequence, so numerics are identical; nested
  // Sequentials (residual blocks) report their sublayers into the same
  // sink, which renders as nested spans.
  std::vector<obs::LayerRecord>* sink = obs::layer_sink();
  if (sink == nullptr) {
    for (auto& l : layers_) x = l->forward_inference(x, ws);
    return x;
  }
  for (auto& l : layers_) {
    const char* name = obs::intern(l->name());
    const int64_t t0 = obs::now_ns();
    x = l->forward_inference(x, ws);
    sink->push_back({name, t0, obs::now_ns() - t0});
  }
  return x;
}

void Sequential::erase_layer(size_t i) {
  DSX_REQUIRE(i < layers_.size(), "Sequential::erase_layer: index " << i
                                      << " out of range");
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
}

Tensor Sequential::backward(const Tensor& doutput) {
  Tensor g = doutput;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& l : layers_) l->collect_params(out);
}

void Sequential::collect_buffers(std::vector<Buffer>& out) {
  for (auto& l : layers_) l->collect_buffers(out);
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

scc::LayerCost Sequential::cost(const Shape& input) const {
  scc::LayerCost total;
  Shape s = input;
  for (const auto& l : layers_) {
    total += l->cost(s);
    s = l->output_shape(s);
  }
  return total;
}

std::unique_ptr<Sequential> Sequential::clone_sequential() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& l : layers_) copy->add(l->clone());
  return copy;
}

std::unique_ptr<Layer> Sequential::clone() const { return clone_sequential(); }

void Sequential::for_each_layer(const std::function<void(Layer&)>& fn) {
  for (auto& l : layers_) {
    fn(*l);
    if (auto* seq = dynamic_cast<Sequential*>(l.get())) {
      seq->for_each_layer(fn);
    } else if (auto* res = dynamic_cast<Residual*>(l.get())) {
      fn(res->main());
      if (auto* mseq = dynamic_cast<Sequential*>(&res->main())) {
        mseq->for_each_layer(fn);
      }
      if (res->shortcut() != nullptr) {
        fn(*res->shortcut());
        if (auto* sseq = dynamic_cast<Sequential*>(res->shortcut())) {
          sseq->for_each_layer(fn);
        }
      }
    }
  }
}

// ---- Residual -----------------------------------------------------------------

Residual::Residual(LayerPtr main, LayerPtr shortcut)
    : main_(std::move(main)), shortcut_(std::move(shortcut)) {
  DSX_REQUIRE(main_ != nullptr, "Residual: main branch required");
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor y = main_->forward(input, training);
  Tensor s = shortcut_ != nullptr ? shortcut_->forward(input, training)
                                  : input;
  DSX_REQUIRE(y.shape() == s.shape(),
              "Residual: branch shapes differ: " << y.shape().to_string()
                                                 << " vs "
                                                 << s.shape().to_string());
  add_(y, s);
  if (training) cached_pre_relu_ = y;
  return relu_forward(y);
}

Tensor Residual::forward_inference(const Tensor& input, Workspace& ws) {
  Tensor y = main_->forward_inference(input, ws);
  Tensor s = shortcut_ != nullptr ? shortcut_->forward_inference(input, ws)
                                  : input;
  DSX_REQUIRE(y.shape() == s.shape(),
              "Residual: branch shapes differ: " << y.shape().to_string()
                                                 << " vs "
                                                 << s.shape().to_string());
  // Fused add+ReLU into a fresh arena tensor; same float ops as
  // add_ + relu_forward, so results stay bit-identical to forward(.., false).
  Tensor out = ws.alloc_tensor(y.shape());
  const float* py = y.data();
  const float* ps = s.data();
  float* po = out.data();
  device::launch_kernel_chunks(
      "residual_add_relu", out.numel(), {2.0, 12.0},
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          const float v = py[i] + ps[i];
          po[i] = v > 0.0f ? v : 0.0f;
        }
      });
  return out;
}

Tensor Residual::backward(const Tensor& doutput) {
  DSX_REQUIRE(cached_pre_relu_.defined(), "Residual::backward before forward");
  Tensor dsum = relu_backward(doutput, cached_pre_relu_);
  Tensor dx = main_->backward(dsum);
  if (shortcut_ != nullptr) {
    add_(dx, shortcut_->backward(dsum));
  } else {
    add_(dx, dsum);
  }
  return dx;
}

std::unique_ptr<Layer> Residual::clone() const {
  return std::make_unique<Residual>(
      main_->clone(), shortcut_ != nullptr ? shortcut_->clone() : nullptr);
}

void Residual::collect_params(std::vector<Param*>& out) {
  main_->collect_params(out);
  if (shortcut_ != nullptr) shortcut_->collect_params(out);
}

void Residual::collect_buffers(std::vector<Buffer>& out) {
  main_->collect_buffers(out);
  if (shortcut_ != nullptr) shortcut_->collect_buffers(out);
}

Shape Residual::output_shape(const Shape& input) const {
  return main_->output_shape(input);
}

scc::LayerCost Residual::cost(const Shape& input) const {
  scc::LayerCost total = main_->cost(input);
  if (shortcut_ != nullptr) total += shortcut_->cost(input);
  return total;
}

}  // namespace dsx::nn
