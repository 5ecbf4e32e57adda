#include "data/synth_dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/parallel.h"

namespace shmcaffe::data {
namespace {

/// Columns of checkerboard sines held at once: a bounded stack row, so a
/// sample allocates nothing.  Wider images take the columns in blocks and
/// recompute the row sines once per block.
constexpr int kSineBlock = 256;

/// Writes pattern family `cls`'s base intensity, in [-1, 1], into `plane`
/// (height rows of width floats).  `phase_y`, `phase_x` jitter the geometry
/// per sample; `freq` the scale.  Each family computes only the terms it
/// reads, once per row or column where the term depends on only one of
/// them.  Every libm call gets the argument, and every double expression
/// the operation order, of the per-pixel formula in its comment, so each
/// float is the one that formula gives.
void base_pattern(int cls, int height, int width, double phase_y, double phase_x,
                  double freq, float* plane) {
  const double cy = height / 2.0 + phase_y;
  const double cx = width / 2.0 + phase_x;
  const auto row = [&](int y) { return plane + static_cast<std::size_t>(y) * width; };
  switch (cls) {
    case 0:  // horizontal stripes: sin(fy), fy = (y + phase_y) * freq
      for (int y = 0; y < height; ++y) {
        std::fill_n(row(y), width, static_cast<float>(std::sin((y + phase_y) * freq)));
      }
      return;
    case 1:  // vertical stripes: sin(fx), fx = (x + phase_x) * freq
      for (int x = 0; x < width; ++x) {
        plane[x] = static_cast<float>(std::sin((x + phase_x) * freq));
      }
      for (int y = 1; y < height; ++y) std::copy_n(plane, width, row(y));
      return;
    case 2:  // diagonal stripes: sin((fy + fx) * 0.7071)
      for (int y = 0; y < height; ++y) {
        const double fy = (y + phase_y) * freq;
        float* out = row(y);
        for (int x = 0; x < width; ++x) {
          out[x] = static_cast<float>(std::sin((fy + (x + phase_x) * freq) * 0.7071));
        }
      }
      return;
    case 3: {  // checkerboard: sin(fy) * sin(fx), multiplied in double
      double sin_fx[kSineBlock];
      for (int x0 = 0; x0 < width; x0 += kSineBlock) {
        const int block = std::min(kSineBlock, width - x0);
        for (int i = 0; i < block; ++i) sin_fx[i] = std::sin((x0 + i + phase_x) * freq);
        for (int y = 0; y < height; ++y) {
          const double sin_fy = std::sin((y + phase_y) * freq);
          float* out = row(y) + x0;
          for (int i = 0; i < block; ++i) out[i] = static_cast<float>(sin_fy * sin_fx[i]);
        }
      }
      return;
    }
    case 4:  // concentric rings: sin(radius * freq * 2.0)
    case 5: {  // centred blob: 2 exp(-radius² / (0.08 h w)) - 1
      // radius = sqrt(dy * dy + dx * dx), dy = y - cy, dx = x - cx.
      const double spread = 0.08 * height * width;
      for (int y = 0; y < height; ++y) {
        const double dy = y - cy;
        const double dy2 = dy * dy;
        float* out = row(y);
        for (int x = 0; x < width; ++x) {
          const double dx = x - cx;
          const double radius = std::sqrt(dy2 + dx * dx);
          out[x] = cls == 4 ? static_cast<float>(std::sin(radius * freq * 2.0))
                            : static_cast<float>(2.0 * std::exp(-radius * radius / spread) - 1.0);
        }
      }
      return;
    }
    case 6:  // corner-to-corner gradient: (y / h + x / w) - 1
      for (int y = 0; y < height; ++y) {
        const double gy = static_cast<double>(y) / height;
        float* out = row(y);
        for (int x = 0; x < width; ++x) {
          out[x] = static_cast<float>((gy + static_cast<double>(x) / width) - 1.0);
        }
      }
      return;
    case 7:  // axis-aligned cross: |dy| < h / 6 or |dx| < w / 6
      for (int y = 0; y < height; ++y) {
        const bool on_row = std::abs(y - cy) < height / 6.0;
        float* out = row(y);
        for (int x = 0; x < width; ++x) {
          out[x] = on_row || std::abs(x - cx) < width / 6.0 ? 1.0F : -1.0F;
        }
      }
      return;
    default:
      std::fill_n(plane, static_cast<std::size_t>(height) * width, 0.0F);
      return;
  }
}

}  // namespace

SynthImageDataset::SynthImageDataset(SynthDatasetOptions options) : options_(options) {
  if (options_.classes < 2 || options_.classes > 8) {
    throw std::invalid_argument("SynthImageDataset supports 2..8 classes");
  }
  if (options_.size == 0 || options_.channels < 1 || options_.height < 4 ||
      options_.width < 4) {
    throw std::invalid_argument("SynthImageDataset: invalid geometry");
  }
}

int SynthImageDataset::label(std::size_t index) const {
  assert(index < options_.size);
  return static_cast<int>(index % static_cast<std::size_t>(options_.classes));
}

void SynthImageDataset::materialize(std::size_t index, std::span<float> image) const {
  assert(index < options_.size);
  if (image.size() != image_elements()) {
    throw std::invalid_argument("materialize: wrong image buffer size");
  }
  const int cls = label(index);
  common::Rng rng = common::Rng(options_.seed).fork(index * 2654435761ULL + 1);

  // Per-sample geometric and photometric jitter.
  const double phase_y = rng.uniform(0.0, 4.0);
  const double phase_x = rng.uniform(0.0, 4.0);
  const double freq = rng.uniform(0.9, 1.25) * (2.0 * M_PI / 8.0);
  const double amplitude = rng.uniform(0.7, 1.0);

  // Channel 0's plane holds the base pattern and the other channels copy
  // it; then each channel is tinted and noised in place.  The noise draws
  // run pixel by pixel in channel order: Box–Muller pairs span pixels and
  // channels, so the order fixes the sample.
  const std::size_t plane = static_cast<std::size_t>(options_.height) * options_.width;
  float* pixels = image.data();
  base_pattern(cls, options_.height, options_.width, phase_y, phase_x, freq, pixels);
  for (int c = 1; c < options_.channels; ++c) {
    std::copy_n(pixels, plane, pixels + static_cast<std::size_t>(c) * plane);
  }
  for (int c = 0; c < options_.channels; ++c) {
    const double tint = rng.uniform(0.8, 1.2);
    const double scale = amplitude * tint;
    float* out = pixels + static_cast<std::size_t>(c) * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      out[i] = static_cast<float>(scale * out[i] + rng.normal(0.0, options_.noise_stddev));
    }
  }
}

void SynthImageDataset::fill_batch(std::span<const std::size_t> indices, dl::Tensor& data,
                                   dl::Tensor& labels) const {
  const int batch = static_cast<int>(indices.size());
  data.reshape({batch, options_.channels, options_.height, options_.width});
  labels.reshape({batch});
  const std::size_t stride = image_elements();
  // One sample per chunk, each written by exactly one chunk from its own
  // (seed, index) stream: the batch is the same at every pool width.
  common::parallel::parallel_for(indices.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t n = begin; n < end; ++n) {
      materialize(indices[n], std::span<float>(data.data() + n * stride, stride));
      labels[n] = static_cast<float>(label(indices[n]));
    }
  });
}

}  // namespace shmcaffe::data
