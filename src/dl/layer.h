// Layer interface of the mini-Caffe library.
//
// A layer consumes one or more bottom tensors and produces exactly one top
// tensor.  Learnable parameters live in ParamBlobs (value + gradient pair)
// owned by the layer.  A layer's constructor records each blob's shape and
// allocates nothing: a Net binds every blob to its slice of the net's two
// parameter stores (dl/net.h) before any blob is touched, and a layer used
// on its own allocates its blobs at its first setup() or init_params().
// Backward-pass contract:
//
//   * the net zeroes all activation gradients before backward;
//   * backward() ACCUMULATES (+=) into bottom gradients, so a blob consumed
//     by several layers (inception branches) collects all contributions;
//   * parameter gradients are also accumulated; the solver zeroes them after
//     each update.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dl/tensor.h"

namespace shmcaffe::dl {

/// A parameter: value and gradient of identical shape.  `learnable = false`
/// marks state blobs (batch-norm running statistics) that are shared and
/// serialised with the model but never touched by the solver.
struct ParamBlob {
  std::string name;
  /// Recorded by the layer's constructor; `value` and `grad` stay empty
  /// until bind() or allocate().
  std::vector<int> shape;
  Tensor value;
  Tensor grad;
  bool learnable = true;

  [[nodiscard]] std::size_t count() const { return Tensor::element_count(shape); }

  /// Views `values` and `grads` (count() floats each), a net's store slices.
  void bind(std::span<float> values, std::span<float> grads) {
    if (!value.empty()) throw std::logic_error("parameter blob already has storage: " + name);
    value = Tensor::view(shape, values);
    grad = Tensor::view(shape, grads);
  }

  /// Gives a blob no net has bound zeroed storage of its own.
  void allocate() {
    if (!value.empty()) return;
    value.reshape(shape);
    grad.reshape(shape);
  }
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Validates bottom shapes and shapes `top` (and parameters on first call).
  virtual void setup(const std::vector<const Tensor*>& bottoms, Tensor& top) = 0;

  /// Computes top from bottoms.  `train` toggles train-time behaviour
  /// (dropout).
  virtual void forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                       bool train) = 0;

  /// Accumulates gradients: given d(loss)/d(top) in `top_grad`, adds
  /// d(loss)/d(bottom_i) into `bottom_grads[i]` and d(loss)/d(param) into the
  /// layer's ParamBlobs.  `top` holds the forward result (layers may reuse
  /// cached state from the last forward call).
  virtual void backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                        const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) = 0;

  /// Learnable parameters (empty for stateless layers).
  [[nodiscard]] virtual std::vector<ParamBlob*> params() { return {}; }

  /// Initialises parameters (no-op for stateless layers).
  virtual void init_params(common::Rng& /*rng*/) {}

 protected:
  /// Allocates the blobs no net has bound: a layer with parameters calls
  /// this first in setup() and init_params().
  void allocate_params() {
    for (ParamBlob* blob : params()) blob->allocate();
  }

 private:
  std::string name_;
};

}  // namespace shmcaffe::dl
