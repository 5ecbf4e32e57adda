// DAG network container of the mini-Caffe library.
//
// Layers are added in topological order with named input/output blobs:
//
//   Net net("example");
//   net.add_input("data");
//   net.add_input("label");
//   net.add(std::make_unique<Conv2d>("conv1", 3, 16, 3, 1, 1), {"data"}, "conv1");
//   net.add(std::make_unique<Relu>("relu1"), {"conv1"}, "relu1");
//   ...
//   net.add(std::make_unique<SoftmaxCrossEntropy>("loss"), {"fc", "label"}, "loss");
//
//   net.init_params(rng);
//   net.input("data") = batch_images;   // fill inputs
//   net.input("label") = batch_labels;
//   float loss = net.forward(/*train=*/true)[0];
//   net.backward();                      // parameter grads accumulated
//
// Shapes are inferred lazily: the first forward (and any forward after an
// input shape change) re-runs layer setup.
//
// Parameters live in two stores owned by the net, one of values and one of
// gradients, each contiguous in params() order: the layout of the SMB weight
// segments, so the trainers exchange, all-reduce and broadcast them in
// place.  Each ParamBlob views its slice.  The net allocates both stores
// and binds every blob before any blob is touched — at its first params(),
// init_params(), forward(), zero_param_grads() or store access — and add()
// throws after that.  A moved net keeps its stores and its blobs' views.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dl/layer.h"
#include "dl/tensor.h"

namespace shmcaffe::dl {

class Net {
 public:
  explicit Net(std::string name = "net") : name_(std::move(name)) {}
  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;
  Net(Net&&) = default;
  Net& operator=(Net&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Declares an externally-fed blob (data, labels).
  void add_input(const std::string& blob_name);

  /// Adds a layer; `inputs` must already exist, `output` must be new, and
  /// the parameter stores must not exist yet.  Returns a reference to the
  /// stored layer.
  Layer& add(std::unique_ptr<Layer> layer, std::vector<std::string> inputs,
             std::string output);

  /// Mutable access to an input blob (fill before forward).
  [[nodiscard]] Tensor& input(const std::string& blob_name);

  /// Read access to any blob after forward.
  [[nodiscard]] const Tensor& blob(const std::string& blob_name) const;

  /// Runs all layers; returns the last layer's top.
  const Tensor& forward(bool train);

  /// Backpropagates from the last layer's top (which must be scalar — the
  /// loss); accumulates parameter gradients.
  void backward();

  /// All learnable parameters, in deterministic (layer insertion) order.
  [[nodiscard]] std::vector<ParamBlob*> params();

  /// Scalar count of every parameter blob; needs no storage.
  [[nodiscard]] std::size_t param_count() const;

  /// Every parameter value (gradient), in params() order: the stores the
  /// blobs view.
  [[nodiscard]] std::span<float> param_values();
  [[nodiscard]] std::span<float> param_grads();

  /// Initialises every layer's parameters from `rng`.
  void init_params(common::Rng& rng);

  /// Zeroes all parameter gradients (the solver calls this after a step).
  void zero_param_grads();

 private:
  struct BlobRec {
    Tensor value;
    Tensor grad;
    bool is_input = false;
  };

  struct Entry {
    std::unique_ptr<Layer> layer;
    std::vector<std::string> inputs;
    std::string output;
    std::vector<std::vector<int>> setup_shapes;  // bottom shapes at last setup
  };

  BlobRec& blob_rec(const std::string& blob_name);
  [[nodiscard]] const BlobRec& blob_rec(const std::string& blob_name) const;
  /// Allocates the two stores and binds every blob to its slice, once.
  void bind_params();

  std::string name_;
  std::map<std::string, BlobRec> blobs_;
  std::vector<Entry> entries_;
  bool bound_ = false;
  std::vector<float> values_;  // parameter store, built by bind_params()
  std::vector<float> grads_;   // gradient store, same layout
};

/// Index of the most probable class per sample, from a [N,K] logits tensor.
std::vector<int> argmax_rows(const Tensor& logits);

}  // namespace shmcaffe::dl
