// Correctness checks computed apart from the program's fast paths.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/containers.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Fused SCC forward (training and serving entry points) against a naive
/// loop over sliding channel windows written from the paper's definition.
void check_scc_forward(Report& report);

/// SCC backward input and weight gradients against central finite
/// differences at a tiny shape.
void check_scc_backward(Report& report);

/// Takes the model's BatchNorm running statistics from a fixed calibration
/// set (a training-mode forward per batch), as a model is before it is
/// deployed. Params are left unchanged.
void calibrate_batchnorm(dsx::nn::Sequential& model);

/// `count` distinct [1, C, H, W] images drawn from the synthetic CIFAR task.
std::vector<dsx::Tensor> make_images(int64_t count, uint64_t seed);

/// Expected logits for each distinct image, from the unfolded, unfused
/// eval-mode forward (SCC on the channel-stack composition), plus the
/// strict-mode property: repeated images return bit-identical logits
/// whatever batch they landed in. A second reference, the same model with
/// its BatchNorm running statistics back at their initial values, tells
/// the known ModelStore fault (checkpoints hold Params only, so a stored
/// model loses those statistics) apart from any other wrong reply.
/// Thread-safe.
class ReplyChecker {
 public:
  /// Relative + absolute tolerance of a served logit against a reference.
  static constexpr float kRelTol = 1e-3f;
  static constexpr float kAbsTol = 1e-4f;

  enum class Verdict {
    kPass,        // within tolerance of the model's reference
    kStoreFault,  // within tolerance of the statistics-lost reference only
    kWrong,       // neither, a malformed reply, or a repeat that differs
  };

  /// `stats_lost` is `model` with its BatchNorm running statistics at the
  /// values the architecture builder gives them.
  ReplyChecker(const dsx::nn::Sequential& model,
               const dsx::nn::Sequential& stats_lost,
               const std::vector<dsx::Tensor>& images);

  /// Classifies `logits` ([1, classes]) for image `index`; a reply that is
  /// not bit-identical to an earlier reply for the same image is kWrong.
  Verdict verify(size_t index, const dsx::Tensor& logits);

  /// Largest |served - model reference| seen so far.
  float max_abs_error() const;
  /// Smallest, over the distinct images, largest |model reference -
  /// statistics-lost reference|: how far every image's answer moves when
  /// the statistics are lost.
  float min_fault_gap() const { return min_fault_gap_; }

 private:
  std::vector<std::vector<float>> reference_;
  std::vector<std::vector<float>> stats_lost_;
  float min_fault_gap_ = 0.0f;
  mutable std::mutex mu_;
  std::vector<std::vector<float>> first_reply_;
  float max_abs_error_ = 0.0f;
};

}  // namespace perfbench
