// Procedural synthetic image-classification dataset.
//
// Stands in for ILSVRC-2012 in the convergence experiments: 8 pattern
// families (stripes, checkerboards, rings, blobs, gradients, crosses) with
// per-sample geometric jitter, per-channel tinting and additive Gaussian
// noise.  Every sample is generated deterministically from (seed, index), so
// the dataset needs no storage, every worker sees identical data, and any
// index can be materialised in O(H*W) — which is also what lets the sharded
// loader hand out disjoint subsets without duplication (paper §III-C: "the
// deep learning data is assigned to all workers without duplication").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/rng.h"
#include "dl/tensor.h"

namespace shmcaffe::data {

struct SynthDatasetOptions {
  int channels = 3;
  int height = 16;
  int width = 16;
  int classes = 8;  ///< at most 8 pattern families are defined
  std::size_t size = 4096;
  double noise_stddev = 0.35;
  std::uint64_t seed = 0x5ca1e;
};

class SynthImageDataset {
 public:
  explicit SynthImageDataset(SynthDatasetOptions options);

  [[nodiscard]] std::size_t size() const { return options_.size; }
  [[nodiscard]] const SynthDatasetOptions& options() const { return options_; }
  [[nodiscard]] std::size_t image_elements() const {
    return static_cast<std::size_t>(options_.channels) * options_.height * options_.width;
  }

  /// Class label of sample `index` (balanced round-robin).
  [[nodiscard]] int label(std::size_t index) const;

  /// Writes sample `index`'s pixels into `image` (image_elements() floats).
  /// Allocates nothing: the output buffer is its only scratch.
  SHMCAFFE_HOT_KERNEL void materialize(std::size_t index, std::span<float> image) const;

  /// Fills a batch: `data` reshaped to [indices.size(), C, H, W], `labels`
  /// to [indices.size()].  Samples are synthesized on the work pool, one
  /// per chunk, so the batch is the same at every pool width.
  void fill_batch(std::span<const std::size_t> indices, dl::Tensor& data,
                  dl::Tensor& labels) const;

 private:
  SynthDatasetOptions options_;
};

}  // namespace shmcaffe::data
