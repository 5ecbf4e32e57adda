// Concrete layers of the mini-Caffe library: convolution, pooling,
// activations, inner product, dropout, concat, residual add, and the fused
// softmax-cross-entropy loss.  All shapes are NCHW; FullyConnected flattens
// per sample.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/ordered_mutex.h"
#include "dl/layer.h"

namespace shmcaffe::dl {

/// 2-D convolution with square kernel, stride and zero padding.  Each
/// sample is lowered to a column matrix (im2col) and the convolution runs as
/// matrix products on dl's tiled GEMM engine (Caffe's strategy): forward
/// is W . col, the weight gradient col . dY^T (dW^T).  The engine runs on
/// the shared work pool (common/parallel.h) with chunking that is a pure
/// function of the geometry, so outputs and gradients are bitwise identical
/// for every SHMCAFFE_THREADS; the lowering and col2im are copies and run
/// inline.
class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, int in_channels, int out_channels, int kernel, int stride = 1,
         int pad = 0);

  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
  std::vector<ParamBlob*> params() override { return {&weight_, &bias_}; }
  void init_params(common::Rng& rng) override;

  /// Multiplies the MSRA initialisation's standard deviation.  0 zero-
  /// initialises the layer — used for the last convolution of residual
  /// branches so residual blocks start as identities and deep stacks train
  /// stably without normalisation.
  void set_init_scale(double scale) { init_scale_ = scale; }

 private:
  SHMCAFFE_HOT_KERNEL void forward_gemm(const Tensor& x, Tensor& top);
  SHMCAFFE_HOT_KERNEL void backward_gemm(const Tensor& x, const Tensor& top,
                                         const Tensor& top_grad, Tensor* dx);
  /// Lowers one sample into col_ as [kk][columns]: forward's B operand and
  /// the weight gradient's A operand.
  SHMCAFFE_HOT_KERNEL void im2col(const Tensor& x, int sample, int oh, int ow);
  /// Adds dcol_ ([kk][columns]) back into sample `sample` of dx.
  void col2im(Tensor& dx, int sample, int oh, int ow) const;

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  double init_scale_ = 1.0;
  ParamBlob weight_;          // [out, in, k, k]
  ParamBlob bias_;            // [out]
  /// Per-layer scratch, arena-backed: sized on first use and reused across
  /// calls (a layer's forward/backward never run concurrently with
  /// themselves), so steady-state iterations never touch the heap.  Owning
  /// allocations (not SMB views) living as long as the layer: a deliberate
  /// escape.
  common::arena::Buffer col_ SHMCAFFE_PIN_ESCAPE{"dl.conv.col"};    // im2col scratch
  common::arena::Buffer dcol_ SHMCAFFE_PIN_ESCAPE{"dl.conv.dcol"};  // backward col-grad scratch
};

/// Rectified linear unit, y = max(0, x).
class Relu final : public Layer {
 public:
  explicit Relu(std::string name) : Layer(std::move(name)) {}
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
};

/// Max pooling with square window.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, int kernel, int stride);
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;

 private:
  int kernel_;
  int stride_;
  std::vector<std::uint32_t> argmax_;  // flat bottom index per top element
};

/// Global average pooling: [N,C,H,W] -> [N,C,1,1].
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
};

/// Inner product (fully connected): flattens each sample to a feature vector.
/// Forward runs on dl's tiled GEMM engine as W . x^T, with x transposed per
/// call into arena scratch.
class FullyConnected final : public Layer {
 public:
  FullyConnected(std::string name, int in_features, int out_features);
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  SHMCAFFE_HOT_KERNEL void forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                                   bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
  std::vector<ParamBlob*> params() override { return {&weight_, &bias_}; }
  void init_params(common::Rng& rng) override;

 private:
  int in_features_;
  int out_features_;
  ParamBlob weight_;  // [out, in]
  ParamBlob bias_;    // [out]
};

/// Inverted dropout; identity at evaluation time.
class Dropout final : public Layer {
 public:
  Dropout(std::string name, double drop_probability, std::uint64_t seed = 0x0d20);
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;

 private:
  double drop_probability_;
  common::Rng rng_;
  std::vector<float> mask_;  // scale factor per element of the last forward
};

/// Channel-axis concatenation of rank-4 tensors with equal N, H, W.
class Concat final : public Layer {
 public:
  explicit Concat(std::string name) : Layer(std::move(name)) {}
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
};

/// Elementwise sum of equal-shaped bottoms (residual connections).
class EltwiseAdd final : public Layer {
 public:
  explicit EltwiseAdd(std::string name) : Layer(std::move(name)) {}
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;
};

/// Fused softmax + cross-entropy loss.
/// Bottoms: {logits [N,K], labels [N] (class index stored as float)}.
/// Top: [1] holding the mean loss.  Backward ignores any incoming top_grad
/// scale other than using it as a multiplier (the net passes 1).
class SoftmaxCrossEntropy final : public Layer {
 public:
  explicit SoftmaxCrossEntropy(std::string name) : Layer(std::move(name)) {}
  void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) override;
  void forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) override;
  void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) override;

  /// Per-sample class probabilities of the last forward ([N,K]).
  [[nodiscard]] const Tensor& probabilities() const { return probs_; }

 private:
  Tensor probs_;
};

}  // namespace shmcaffe::dl
