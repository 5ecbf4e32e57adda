// Dense float tensor (NCHW for images), the data type of the mini-Caffe
// library.  Contiguous row-major storage, explicit shapes, no stride
// machinery — layers index directly.  A tensor owns its floats, except a
// parameter blob's, which views its slice of the net's parameter store
// (Tensor::view, dl/net.h); a copy of a view owns a copy of its floats.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace shmcaffe::dl {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape) { reshape(std::move(shape)); }
  Tensor(const Tensor& other)
      : shape_(other.shape_), owned_(other.data_.begin(), other.data_.end()), data_(owned_) {}
  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      shape_ = other.shape_;
      owned_.assign(other.data_.begin(), other.data_.end());
      data_ = owned_;
    }
    return *this;
  }
  // A moved vector keeps its buffer, so data_ stays valid in the new home.
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        owned_(std::move(other.owned_)),
        data_(std::exchange(other.data_, {})) {}
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = std::move(other.shape_);
      owned_ = std::move(other.owned_);
      data_ = std::exchange(other.data_, {});
    }
    return *this;
  }

  /// A non-owning tensor of `shape` over `storage`, which must hold exactly
  /// as many floats and outlive it.
  [[nodiscard]] static Tensor view(std::vector<int> shape, std::span<float> storage) {
    Tensor t;
    t.shape_ = std::move(shape);
    if (element_count(t.shape_) != storage.size()) {
      throw std::invalid_argument("Tensor::view: storage size does not match the shape");
    }
    t.data_ = storage;
    return t;
  }

  /// Reshapes to zeros; a view cannot change its storage.
  void reshape(std::vector<int> shape) {
    if (is_view()) throw std::logic_error("reshape of a tensor view");
    shape_ = std::move(shape);
    owned_.assign(element_count(shape_), 0.0F);
    data_ = owned_;
  }

  /// Reshape preserving contents; the element count must match.
  void reshape_keep(std::vector<int> shape) {
    assert(element_count(shape) == data_.size());
    shape_ = std::move(shape);
  }

  /// Elements of a tensor of `shape` (0 for rank 0).
  [[nodiscard]] static std::size_t element_count(const std::vector<int>& shape) {
    std::size_t total = 1;
    for (int d : shape) {
      assert(d > 0);
      total *= static_cast<std::size_t>(d);
    }
    return shape.empty() ? 0 : total;
  }

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] int dim(std::size_t axis) const {
    assert(axis < shape_.size());
    return shape_[axis];
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  /// True for a tensor made by view(): its floats belong to someone else.
  [[nodiscard]] bool is_view() const { return !data_.empty() && owned_.empty(); }

  // NCHW accessors (valid for rank-4 tensors).
  [[nodiscard]] int n() const { return dim(0); }
  [[nodiscard]] int c() const { return dim(1); }
  [[nodiscard]] int h() const { return dim(2); }
  [[nodiscard]] int w() const { return dim(3); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> span() { return data_; }
  [[nodiscard]] std::span<const float> span() const { return data_; }

  [[nodiscard]] float& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] float operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  /// Element (n, c, h, w) of a rank-4 tensor.
  [[nodiscard]] float& at(int in, int ic, int ih, int iw) {
    return data_[offset(in, ic, ih, iw)];
  }
  [[nodiscard]] float at(int in, int ic, int ih, int iw) const {
    return data_[offset(in, ic, ih, iw)];
  }

  void fill(float value) { std::fill(data_.begin(), data_.end(), value); }
  void zero() { fill(0.0F); }

  [[nodiscard]] bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  [[nodiscard]] std::size_t offset(int in, int ic, int ih, int iw) const {
    assert(rank() == 4);
    assert(in >= 0 && in < n() && ic >= 0 && ic < c());
    assert(ih >= 0 && ih < h() && iw >= 0 && iw < w());
    return ((static_cast<std::size_t>(in) * static_cast<std::size_t>(c()) +
             static_cast<std::size_t>(ic)) *
                static_cast<std::size_t>(h()) +
            static_cast<std::size_t>(ih)) *
               static_cast<std::size_t>(w()) +
           static_cast<std::size_t>(iw);
  }

  std::vector<int> shape_;
  std::vector<float> owned_;  // empty for a view
  std::span<float> data_;     // owned_, or the viewed storage
};

}  // namespace shmcaffe::dl
