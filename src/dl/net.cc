#include "dl/net.h"

#include <algorithm>
#include <stdexcept>

namespace shmcaffe::dl {

void Net::add_input(const std::string& blob_name) {
  if (blobs_.contains(blob_name)) {
    throw std::invalid_argument("blob already exists: " + blob_name);
  }
  blobs_[blob_name].is_input = true;
}

Layer& Net::add(std::unique_ptr<Layer> layer, std::vector<std::string> inputs,
                std::string output) {
  if (layer == nullptr) throw std::invalid_argument("null layer");
  if (bound_) throw std::logic_error("add after the parameter stores exist: " + layer->name());
  for (const std::string& in : inputs) {
    if (!blobs_.contains(in)) {
      throw std::invalid_argument("layer '" + layer->name() + "' reads unknown blob: " + in);
    }
  }
  if (blobs_.contains(output)) {
    throw std::invalid_argument("output blob already exists: " + output);
  }
  blobs_[output];  // create
  Entry entry;
  entry.layer = std::move(layer);
  entry.inputs = std::move(inputs);
  entry.output = std::move(output);
  entries_.push_back(std::move(entry));
  return *entries_.back().layer;
}

Net::BlobRec& Net::blob_rec(const std::string& blob_name) {
  const auto it = blobs_.find(blob_name);
  if (it == blobs_.end()) throw std::invalid_argument("unknown blob: " + blob_name);
  return it->second;
}

const Net::BlobRec& Net::blob_rec(const std::string& blob_name) const {
  const auto it = blobs_.find(blob_name);
  if (it == blobs_.end()) throw std::invalid_argument("unknown blob: " + blob_name);
  return it->second;
}

Tensor& Net::input(const std::string& blob_name) {
  BlobRec& rec = blob_rec(blob_name);
  if (!rec.is_input) throw std::invalid_argument("not an input blob: " + blob_name);
  return rec.value;
}

const Tensor& Net::blob(const std::string& blob_name) const {
  return blob_rec(blob_name).value;
}

const Tensor& Net::forward(bool train) {
  if (entries_.empty()) throw std::logic_error("forward on an empty net");
  bind_params();
  for (Entry& entry : entries_) {
    std::vector<const Tensor*> bottoms;
    bottoms.reserve(entry.inputs.size());
    std::vector<std::vector<int>> shapes;
    shapes.reserve(entry.inputs.size());
    for (const std::string& in : entry.inputs) {
      const Tensor& t = blob_rec(in).value;
      bottoms.push_back(&t);
      shapes.push_back(t.shape());
    }
    BlobRec& out = blob_rec(entry.output);
    if (shapes != entry.setup_shapes) {
      entry.layer->setup(bottoms, out.value);
      entry.setup_shapes = std::move(shapes);
    }
    entry.layer->forward(bottoms, out.value, train);
  }
  return blob_rec(entries_.back().output).value;
}

void Net::backward() {
  if (entries_.empty()) throw std::logic_error("backward on an empty net");
  // Zero activation gradients and size them to their values.
  for (auto& [name, rec] : blobs_) {
    if (!rec.grad.same_shape(rec.value)) {
      rec.grad.reshape(rec.value.shape());
    } else {
      rec.grad.zero();
    }
  }
  // Seed d(loss)/d(loss) = 1.
  BlobRec& loss = blob_rec(entries_.back().output);
  if (loss.value.size() != 1) {
    throw std::logic_error("backward requires a scalar loss top");
  }
  loss.grad[0] = 1.0F;

  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    Entry& entry = *it;
    std::vector<const Tensor*> bottoms;
    std::vector<Tensor*> bottom_grads;
    bottoms.reserve(entry.inputs.size());
    bottom_grads.reserve(entry.inputs.size());
    for (const std::string& in : entry.inputs) {
      BlobRec& rec = blob_rec(in);
      bottoms.push_back(&rec.value);
      // External inputs (data, labels) receive no gradient.
      bottom_grads.push_back(rec.is_input ? nullptr : &rec.grad);
    }
    const BlobRec& out = blob_rec(entry.output);
    entry.layer->backward(bottoms, out.value, out.grad, bottom_grads);
  }
}

void Net::bind_params() {
  if (bound_) return;
  bound_ = true;
  const std::size_t total = param_count();
  values_.assign(total, 0.0F);
  grads_.assign(total, 0.0F);
  std::size_t offset = 0;
  for (Entry& entry : entries_) {
    for (ParamBlob* blob : entry.layer->params()) {
      const std::size_t count = blob->count();
      blob->bind(std::span(values_).subspan(offset, count),
                 std::span(grads_).subspan(offset, count));
      offset += count;
    }
  }
}

std::vector<ParamBlob*> Net::params() {
  bind_params();
  std::vector<ParamBlob*> result;
  for (Entry& entry : entries_) {
    for (ParamBlob* blob : entry.layer->params()) result.push_back(blob);
  }
  return result;
}

std::size_t Net::param_count() const {
  std::size_t total = 0;
  for (const Entry& entry : entries_) {
    for (const ParamBlob* blob : entry.layer->params()) total += blob->count();
  }
  return total;
}

std::span<float> Net::param_values() {
  bind_params();
  return values_;
}

std::span<float> Net::param_grads() {
  bind_params();
  return grads_;
}

void Net::init_params(common::Rng& rng) {
  bind_params();
  for (Entry& entry : entries_) entry.layer->init_params(rng);
}

void Net::zero_param_grads() {
  bind_params();
  std::fill(grads_.begin(), grads_.end(), 0.0F);
}

std::vector<int> argmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("argmax_rows expects [N,K]");
  const int batch = logits.dim(0);
  const int classes = logits.dim(1);
  std::vector<int> result(static_cast<std::size_t>(batch));
  for (int n = 0; n < batch; ++n) {
    const float* row = logits.data() + static_cast<std::size_t>(n) * classes;
    result[static_cast<std::size_t>(n)] =
        static_cast<int>(std::max_element(row, row + classes) - row);
  }
  return result;
}

}  // namespace shmcaffe::dl
