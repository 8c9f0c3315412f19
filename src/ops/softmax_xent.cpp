#include "ops/softmax_xent.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "device/launch.hpp"

namespace dsx {

Tensor softmax(const Tensor& logits) {
  DSX_REQUIRE(logits.shape().rank() == 2, "softmax: logits must be [N, K]");
  const int64_t N = logits.shape().dim(0), K = logits.shape().dim(1);
  Tensor out(logits.shape());
  device::launch_kernel_chunks(
      "softmax", N, {4.0 * static_cast<double>(K), 8.0 * K},
      [&](int64_t b, int64_t e) {
        for (int64_t n = b; n < e; ++n) {
          const float* row = logits.data() + n * K;
          float* o = out.data() + n * K;
          float m = row[0];
          for (int64_t k = 1; k < K; ++k) m = std::max(m, row[k]);
          double z = 0.0;
          for (int64_t k = 0; k < K; ++k) {
            o[k] = std::exp(row[k] - m);
            z += o[k];
          }
          const float inv = static_cast<float>(1.0 / z);
          for (int64_t k = 0; k < K; ++k) o[k] *= inv;
        }
      });
  return out;
}

XentResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const int32_t> labels) {
  DSX_REQUIRE(logits.shape().rank() == 2, "xent: logits must be [N, K]");
  const int64_t N = logits.shape().dim(0), K = logits.shape().dim(1);
  DSX_REQUIRE(static_cast<int64_t>(labels.size()) == N,
              "xent: " << labels.size() << " labels for batch " << N);
  for (int32_t y : labels) {
    DSX_REQUIRE(y >= 0 && y < K, "xent: label " << y << " out of [0," << K
                                                << ")");
  }

  XentResult res;
  res.dlogits = softmax(logits);
  const float invN = 1.0f / static_cast<float>(N);
  // Per-row losses summed in row order afterwards, so the loss does not
  // depend on how the rows were chunked.
  std::vector<double> row_loss(static_cast<size_t>(N));
  device::launch_kernel_chunks(
      "xent", N, {4.0, 8.0}, [&](int64_t b, int64_t e) {
        for (int64_t n = b; n < e; ++n) {
          float* row = res.dlogits.data() + n * K;
          const int32_t y = labels[static_cast<size_t>(n)];
          // -log p_y, clamped away from log(0).
          row_loss[static_cast<size_t>(n)] =
              -std::log(std::max(row[y], 1e-12f));
          row[y] -= 1.0f;
          for (int64_t k = 0; k < K; ++k) row[k] *= invN;
        }
      });
  double loss = 0.0;
  for (const double l : row_loss) loss += l;
  res.loss = loss / static_cast<double>(N);
  return res;
}

}  // namespace dsx
