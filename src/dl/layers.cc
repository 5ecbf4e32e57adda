#include "dl/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "common/simd.h"

namespace shmcaffe::dl {
namespace {

void check(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

// Inputs per block of FullyConnected's x transpose.
constexpr std::size_t kTransposeBlock = 16;

// --- the GEMM engine ---------------------------------------------------------
// The one dense product in dl:  out (= or +=) init + A . B,  for A[m][k]
// with element (i, r) at a[i * row_stride + r * k_stride] and row-major
// B[k][n], with output element (i, j) at out[i * row_stride + j *
// col_stride].  Conv2d forward (W . col), the conv weight gradient (col .
// dY^T, added into dW as dW^T), the conv input gradient (W^T . dY, A read
// straight from W through its k-stride) and FullyConnected forward (W .
// x^T, written as Y[n][o]) all run through it.
//
// Cache-block tiled: each work item computes a kRowTile x kColTile block of
// the output in a stack-local accumulator (8 KiB), which
// common::simd::gemm_block fills in register blocks.  Every accumulator
// element starts at init[i] (0 without init) and adds A[i][r] * B[r][j] for
// r ascending — multiply and add kept separate.  That is exactly the order
// of a serial dot product, so each output element has the bits of the
// naive loop whatever the tile, the block, the pool width or the SIMD tier.
constexpr std::size_t kRowTile = 8;
constexpr std::size_t kColTile = 256;
// A product with fewer multiply-adds than this runs its tiles inline: below
// it the pool's wake-ups cost more than the helpers save (mini_vgg's convs
// all sit below it, a 32->64 conv at 24x24 and mini_vgg's fc1 above).  A
// pure function of the geometry, like the tiles, so the bits do not depend
// on it.
constexpr std::size_t kInlineWork = std::size_t{1} << 21;

struct GemmA {
  const float* data;
  std::size_t row_stride;
  std::size_t k_stride;
};

struct GemmOut {
  float* data;
  std::size_t row_stride;
  std::size_t col_stride;
  bool accumulate;  // out += product instead of out = product
};

void gemm(std::size_t m, std::size_t n, std::size_t k, const GemmA& a, const float* b,
          const float* init, const GemmOut& out) {
  const std::size_t row_tiles = (m + kRowTile - 1) / kRowTile;
  const std::size_t col_tiles = (n + kColTile - 1) / kColTile;
  const auto run_tiles = [&](std::size_t tb, std::size_t te) {
    // Rows packed at the tile's width: a narrow tile's rows then share
    // cache lines instead of sitting 1 KiB apart, where every fourth row
    // would 4K-alias its store against the next row's load.
    float acc[kRowTile * kColTile];
    for (std::size_t tile = tb; tile < te; ++tile) {
      const std::size_t i0 = tile / col_tiles * kRowTile;
      const std::size_t j0 = tile % col_tiles * kColTile;
      const std::size_t rows = std::min(kRowTile, m - i0);
      const std::size_t cols = std::min(kColTile, n - j0);
      for (std::size_t i = 0; i < rows; ++i) {
        std::fill(acc + i * cols, acc + (i + 1) * cols, init == nullptr ? 0.0F : init[i0 + i]);
      }
      common::simd::gemm_block(rows, cols, k, a.data + i0 * a.row_stride, a.row_stride,
                               a.k_stride, b + j0, n, acc);
      for (std::size_t i = 0; i < rows; ++i) {
        const float* arow = acc + i * cols;
        float* orow = out.data + (i0 + i) * out.row_stride + j0 * out.col_stride;
        if (out.accumulate) {
          for (std::size_t j = 0; j < cols; ++j) orow[j * out.col_stride] += arow[j];
        } else if (out.col_stride == 1) {
          std::copy(arow, arow + cols, orow);
        } else {
          for (std::size_t j = 0; j < cols; ++j) orow[j * out.col_stride] = arow[j];
        }
      }
    }
  };
  const std::size_t tiles = row_tiles * col_tiles;
  if (m * n * k < kInlineWork) {
    run_tiles(0, tiles);
  } else {
    common::parallel::parallel_for(tiles, 1, run_tiles);
  }
}

int conv_out_extent(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// The output columns [begin, end) of one kernel column `kx` whose input
/// column xo * stride + kx - pad lies inside [0, width); the columns before
/// and after it read padding.  The same for every output row.
struct ColumnRun {
  int begin;
  int end;
};

ColumnRun valid_columns(int kx, int stride, int pad, int width, int ow) {
  // The first output column whose input column is at least `ix`.
  const auto first_reaching = [&](int ix) {
    const int need = ix + pad - kx;
    return need <= 0 ? 0 : (need + stride - 1) / stride;
  };
  const int begin = std::min(first_reaching(0), ow);
  return ColumnRun{begin, std::max(begin, std::min(first_reaching(width), ow))};
}

/// MSRA (He) initialisation for ReLU networks.
void msra_fill(Tensor& t, std::size_t fan_in, common::Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : t.span()) v = static_cast<float>(rng.normal(0.0, stddev));
}

}  // namespace

// --- Conv2d ---------------------------------------------------------------

Conv2d::Conv2d(std::string name, int in_channels, int out_channels, int kernel, int stride,
               int pad)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  check(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
        "Conv2d: invalid geometry");
  weight_.name = Layer::name() + ".weight";
  weight_.shape = {out_channels_, in_channels_, kernel_, kernel_};
  bias_.name = Layer::name() + ".bias";
  bias_.shape = {out_channels_};
}

void Conv2d::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  allocate_params();
  check(bottoms.size() == 1, "Conv2d: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() == 4, "Conv2d: bottom must be NCHW");
  check(x.c() == in_channels_, "Conv2d: channel mismatch");
  const int oh = conv_out_extent(x.h(), kernel_, stride_, pad_);
  const int ow = conv_out_extent(x.w(), kernel_, stride_, pad_);
  check(oh > 0 && ow > 0, "Conv2d: output would be empty");
  top.reshape({x.n(), out_channels_, oh, ow});
}

void Conv2d::init_params(common::Rng& rng) {
  allocate_params();
  msra_fill(weight_.value,
            static_cast<std::size_t>(in_channels_) * kernel_ * kernel_, rng);
  if (init_scale_ != 1.0) {
    for (float& v : weight_.value.span()) v *= static_cast<float>(init_scale_);
  }
  bias_.value.zero();
}

void Conv2d::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool /*train*/) {
  forward_gemm(*bottoms[0], top);
}

void Conv2d::backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                      const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  backward_gemm(*bottoms[0], top, top_grad, bottom_grads[0]);
}

void Conv2d::im2col(const Tensor& x, int sample, int oh, int ow) {
  // col_ layout: rows = (ic, ky, kx), columns = (y, xo).  The arena grows to
  // the layer's geometry once and is reused.  Each (row, y) is three runs:
  // zeros for the left padding, the valid input run (a strided gather when
  // stride > 1) and zeros for the right padding, so every element is
  // written and no pre-zeroing pass is needed.  A copy, so it runs inline.
  const int height = x.h();
  const int width = x.w();
  const std::size_t plane = static_cast<std::size_t>(height) * width;
  col_.ensure(static_cast<std::size_t>(in_channels_) * kernel_ * kernel_ * oh * ow);
  float* dst = col_.data();
  for (int ic = 0; ic < in_channels_; ++ic) {
    const float* src_plane =
        x.data() + (static_cast<std::size_t>(sample) * in_channels_ + ic) * plane;
    for (int ky = 0; ky < kernel_; ++ky) {
      for (int kx = 0; kx < kernel_; ++kx) {
        const ColumnRun run = valid_columns(kx, stride_, pad_, width, ow);
        for (int y = 0; y < oh; ++y, dst += ow) {
          const int iy = y * stride_ + ky - pad_;
          if (iy < 0 || iy >= height || run.begin == run.end) {
            std::fill(dst, dst + ow, 0.0F);
            continue;
          }
          std::fill(dst, dst + run.begin, 0.0F);
          const float* src = src_plane + static_cast<std::size_t>(iy) * width +
                             (run.begin * stride_ + kx - pad_);
          if (stride_ == 1) {
            std::copy(src, src + (run.end - run.begin), dst + run.begin);
          } else {
            for (int xo = run.begin; xo < run.end; ++xo) {
              dst[xo] = src[(xo - run.begin) * stride_];
            }
          }
          std::fill(dst + run.end, dst + ow, 0.0F);
        }
      }
    }
  }
}

void Conv2d::col2im(Tensor& dx, int sample, int oh, int ow) const {
  // The runs of im2col, added into dx in row order (ic, ky, kx, y, xo): each
  // dx element receives its contributions in that order.
  const int height = dx.h();
  const int width = dx.w();
  const std::size_t plane = static_cast<std::size_t>(height) * width;
  const float* src = dcol_.data();
  for (int ic = 0; ic < in_channels_; ++ic) {
    float* dst_plane =
        dx.data() + (static_cast<std::size_t>(sample) * in_channels_ + ic) * plane;
    for (int ky = 0; ky < kernel_; ++ky) {
      for (int kx = 0; kx < kernel_; ++kx) {
        const ColumnRun run = valid_columns(kx, stride_, pad_, width, ow);
        for (int y = 0; y < oh; ++y, src += ow) {
          const int iy = y * stride_ + ky - pad_;
          if (iy < 0 || iy >= height || run.begin == run.end) continue;
          float* dst = dst_plane + static_cast<std::size_t>(iy) * width +
                       (run.begin * stride_ + kx - pad_);
          for (int xo = run.begin; xo < run.end; ++xo) {
            dst[(xo - run.begin) * stride_] += src[xo];
          }
        }
      }
    }
  }
}

void Conv2d::forward_gemm(const Tensor& x, Tensor& top) {
  const int oh = top.h();
  const int ow = top.w();
  const std::size_t columns = static_cast<std::size_t>(oh) * ow;
  const std::size_t kk = static_cast<std::size_t>(in_channels_) * kernel_ * kernel_;
  const auto oc = static_cast<std::size_t>(out_channels_);
  for (int n = 0; n < x.n(); ++n) {
    im2col(x, n, oh, ow);
    // top[n] = bias + W[oc][kk] . col[kk][columns]
    gemm(oc, columns, kk, GemmA{weight_.value.data(), kk, 1}, col_.data(), bias_.value.data(),
         GemmOut{top.data() + static_cast<std::size_t>(n) * oc * columns, columns, 1, false});
  }
}

void Conv2d::backward_gemm(const Tensor& x, const Tensor& top, const Tensor& top_grad,
                           Tensor* dx) {
  const int oh = top.h();
  const int ow = top.w();
  const auto columns = static_cast<std::size_t>(oh) * ow;
  const auto kk = static_cast<std::size_t>(in_channels_) * kernel_ * kernel_;
  const auto oc = static_cast<std::size_t>(out_channels_);
  dcol_.ensure(kk * columns);
  // dY^T of one sample, [columns][oc]: the weight gradient's B operand.
  common::arena::Buffer gout_t("dl.conv.dyt");
  gout_t.ensure(columns * oc);

  for (int n = 0; n < x.n(); ++n) {
    const float* gout = top_grad.data() + static_cast<std::size_t>(n) * oc * columns;
    // db += row sums of dY, each in ascending column order.
    for (std::size_t o = 0; o < oc; ++o) {
      const float* grow = gout + o * columns;
      float bias_acc = 0.0F;
      for (std::size_t cidx = 0; cidx < columns; ++cidx) bias_acc += grow[cidx];
      bias_.grad[o] += bias_acc;
    }
    // dW^T[kk][oc] += col[kk][columns] . dY^T[columns][oc]: each dW[oc][r]
    // sums col[r][c] * dY[oc][c] for c ascending from 0, the bits of
    // dY . col^T.  One engine call per sample: the per-sample partials add
    // into dW in sample order.
    im2col(x, n, oh, ow);
    for (std::size_t cidx = 0; cidx < columns; ++cidx) {
      float* trow = gout_t.data() + cidx * oc;
      for (std::size_t o = 0; o < oc; ++o) trow[o] = gout[o * columns + cidx];
    }
    gemm(kk, oc, columns, GemmA{col_.data(), columns, 1}, gout_t.data(), nullptr,
         GemmOut{weight_.grad.data(), 1, kk, true});
    if (dx == nullptr) continue;
    // dcol[kk][columns] = W^T . dY: A element (r, o) is W[o][r], so each
    // dcol element sums over output channels in ascending order from 0.
    gemm(kk, columns, oc, GemmA{weight_.value.data(), 1, kk}, gout, nullptr,
         GemmOut{dcol_.data(), columns, 1, false});
    col2im(*dx, n, oh, ow);
  }
}

// --- Relu -------------------------------------------------------------------

void Relu::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "Relu: expects one bottom");
  top.reshape(bottoms[0]->shape());
}

void Relu::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool /*train*/) {
  const Tensor& x = *bottoms[0];
  for (std::size_t i = 0; i < x.size(); ++i) top[i] = x[i] > 0.0F ? x[i] : 0.0F;
}

void Relu::backward(const std::vector<const Tensor*>& bottoms, const Tensor& /*top*/,
                    const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  const Tensor& x = *bottoms[0];
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0F) (*dx)[i] += top_grad[i];
  }
}

// --- MaxPool2d ---------------------------------------------------------------

MaxPool2d::MaxPool2d(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  check(kernel > 0 && stride > 0, "MaxPool2d: invalid geometry");
}

void MaxPool2d::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "MaxPool2d: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() == 4, "MaxPool2d: bottom must be NCHW");
  const int oh = conv_out_extent(x.h(), kernel_, stride_, 0);
  const int ow = conv_out_extent(x.w(), kernel_, stride_, 0);
  check(oh > 0 && ow > 0, "MaxPool2d: output would be empty");
  top.reshape({x.n(), x.c(), oh, ow});
}

void MaxPool2d::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                        bool /*train*/) {
  const Tensor& x = *bottoms[0];
  argmax_.assign(top.size(), 0);
  std::size_t out_index = 0;
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      for (int y = 0; y < top.h(); ++y) {
        for (int xo = 0; xo < top.w(); ++xo) {
          float best = -std::numeric_limits<float>::infinity();
          std::uint32_t best_index = 0;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = y * stride_ + ky;
            if (iy >= x.h()) break;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = xo * stride_ + kx;
              if (ix >= x.w()) break;
              const float v = x.at(n, c, iy, ix);
              if (v > best) {
                best = v;
                best_index = static_cast<std::uint32_t>(
                    ((static_cast<std::size_t>(n) * x.c() + c) * x.h() + iy) * x.w() + ix);
              }
            }
          }
          top[out_index] = best;
          argmax_[out_index] = best_index;
          ++out_index;
        }
      }
    }
  }
}

void MaxPool2d::backward(const std::vector<const Tensor*>& /*bottoms*/, const Tensor& top,
                         const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  assert(argmax_.size() == top.size());
  (void)top;
  for (std::size_t i = 0; i < top_grad.size(); ++i) {
    (*dx)[argmax_[i]] += top_grad[i];
  }
}

// --- GlobalAvgPool ----------------------------------------------------------

void GlobalAvgPool::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "GlobalAvgPool: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() == 4, "GlobalAvgPool: bottom must be NCHW");
  top.reshape({x.n(), x.c(), 1, 1});
}

void GlobalAvgPool::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                            bool /*train*/) {
  const Tensor& x = *bottoms[0];
  const float inv = 1.0F / static_cast<float>(x.h() * x.w());
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      float acc = 0.0F;
      for (int y = 0; y < x.h(); ++y) {
        for (int xo = 0; xo < x.w(); ++xo) acc += x.at(n, c, y, xo);
      }
      top.at(n, c, 0, 0) = acc * inv;
    }
  }
}

void GlobalAvgPool::backward(const std::vector<const Tensor*>& bottoms, const Tensor& /*top*/,
                             const Tensor& top_grad,
                             const std::vector<Tensor*>& bottom_grads) {
  const Tensor& x = *bottoms[0];
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  const float inv = 1.0F / static_cast<float>(x.h() * x.w());
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      const float g = top_grad.at(n, c, 0, 0) * inv;
      for (int y = 0; y < x.h(); ++y) {
        for (int xo = 0; xo < x.w(); ++xo) dx->at(n, c, y, xo) += g;
      }
    }
  }
}

// --- FullyConnected ----------------------------------------------------------

FullyConnected::FullyConnected(std::string name, int in_features, int out_features)
    : Layer(std::move(name)), in_features_(in_features), out_features_(out_features) {
  check(in_features > 0 && out_features > 0, "FullyConnected: invalid sizes");
  weight_.name = Layer::name() + ".weight";
  weight_.shape = {out_features_, in_features_};
  bias_.name = Layer::name() + ".bias";
  bias_.shape = {out_features_};
}

void FullyConnected::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  allocate_params();
  check(bottoms.size() == 1, "FullyConnected: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() >= 2, "FullyConnected: bottom needs a batch axis");
  const auto features = static_cast<int>(x.size()) / x.dim(0);
  check(features == in_features_, "FullyConnected: feature count mismatch");
  top.reshape({x.dim(0), out_features_});
}

void FullyConnected::init_params(common::Rng& rng) {
  allocate_params();
  msra_fill(weight_.value, static_cast<std::size_t>(in_features_), rng);
  bias_.value.zero();
}

void FullyConnected::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                             bool /*train*/) {
  const Tensor& x = *bottoms[0];
  const auto batch = static_cast<std::size_t>(x.dim(0));
  const auto in = static_cast<std::size_t>(in_features_);
  const auto out = static_cast<std::size_t>(out_features_);
  // x^T [in][batch], so the engine's lanes run across the batch.  Blocked
  // over kTransposeBlock inputs so the written rows stay in L1.
  common::arena::Buffer xt("dl.fc.xt");
  xt.ensure(in * batch);
  for (std::size_t i0 = 0; i0 < in; i0 += kTransposeBlock) {
    const std::size_t i1 = std::min(in, i0 + kTransposeBlock);
    for (std::size_t n = 0; n < batch; ++n) {
      const float* xn = x.data() + n * in;
      for (std::size_t i = i0; i < i1; ++i) xt[i * batch + n] = xn[i];
    }
  }
  // Y[n][o] = bias[o] + W[o][in] . x^T[in][n]: product row o, column n.
  gemm(out, batch, in, GemmA{weight_.value.data(), in, 1}, xt.data(), bias_.value.data(),
       GemmOut{top.data(), 1, out, false});
}

void FullyConnected::backward(const std::vector<const Tensor*>& bottoms, const Tensor& /*top*/,
                              const Tensor& top_grad,
                              const std::vector<Tensor*>& bottom_grads) {
  const Tensor& x = *bottoms[0];
  Tensor* dx = bottom_grads[0];
  const int batch = x.dim(0);
  const float* in = x.data();
  const float* w = weight_.value.data();
  float* dw = weight_.grad.data();
  for (int n = 0; n < batch; ++n) {
    const float* xn = in + static_cast<std::size_t>(n) * in_features_;
    const float* gn = top_grad.data() + static_cast<std::size_t>(n) * out_features_;
    for (int o = 0; o < out_features_; ++o) {
      const float g = gn[o];
      if (g == 0.0F) continue;
      bias_.grad[static_cast<std::size_t>(o)] += g;
      float* dwrow = dw + static_cast<std::size_t>(o) * in_features_;
      for (int i = 0; i < in_features_; ++i) dwrow[i] += g * xn[i];
      if (dx != nullptr) {
        float* dxn = dx->data() + static_cast<std::size_t>(n) * in_features_;
        const float* wrow = w + static_cast<std::size_t>(o) * in_features_;
        for (int i = 0; i < in_features_; ++i) dxn[i] += g * wrow[i];
      }
    }
  }
}

// --- Dropout ------------------------------------------------------------------

Dropout::Dropout(std::string name, double drop_probability, std::uint64_t seed)
    : Layer(std::move(name)), drop_probability_(drop_probability), rng_(seed) {
  check(drop_probability >= 0.0 && drop_probability < 1.0, "Dropout: p must be in [0,1)");
}

void Dropout::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "Dropout: expects one bottom");
  top.reshape(bottoms[0]->shape());
}

void Dropout::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) {
  const Tensor& x = *bottoms[0];
  if (!train || drop_probability_ == 0.0) {
    std::copy(x.span().begin(), x.span().end(), top.span().begin());
    mask_.assign(x.size(), 1.0F);
    return;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - drop_probability_));
  mask_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    mask_[i] = rng_.chance(drop_probability_) ? 0.0F : keep_scale;
    top[i] = x[i] * mask_[i];
  }
}

void Dropout::backward(const std::vector<const Tensor*>& /*bottoms*/, const Tensor& /*top*/,
                       const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  assert(mask_.size() == top_grad.size());
  for (std::size_t i = 0; i < top_grad.size(); ++i) (*dx)[i] += top_grad[i] * mask_[i];
}

// --- Concat --------------------------------------------------------------------

void Concat::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(!bottoms.empty(), "Concat: needs at least one bottom");
  const Tensor& first = *bottoms[0];
  check(first.rank() == 4, "Concat: bottoms must be NCHW");
  int channels = 0;
  for (const Tensor* b : bottoms) {
    check(b->rank() == 4 && b->n() == first.n() && b->h() == first.h() && b->w() == first.w(),
          "Concat: mismatched bottom geometry");
    channels += b->c();
  }
  top.reshape({first.n(), channels, first.h(), first.w()});
}

void Concat::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool /*train*/) {
  const int n_total = top.n();
  for (int n = 0; n < n_total; ++n) {
    int c_off = 0;
    for (const Tensor* b : bottoms) {
      for (int c = 0; c < b->c(); ++c) {
        for (int y = 0; y < b->h(); ++y) {
          for (int x = 0; x < b->w(); ++x) {
            top.at(n, c_off + c, y, x) = b->at(n, c, y, x);
          }
        }
      }
      c_off += b->c();
    }
  }
}

void Concat::backward(const std::vector<const Tensor*>& bottoms, const Tensor& /*top*/,
                      const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  const int n_total = top_grad.n();
  for (int n = 0; n < n_total; ++n) {
    int c_off = 0;
    for (std::size_t bi = 0; bi < bottoms.size(); ++bi) {
      const Tensor& b = *bottoms[bi];
      Tensor* dx = bottom_grads[bi];
      if (dx != nullptr) {
        for (int c = 0; c < b.c(); ++c) {
          for (int y = 0; y < b.h(); ++y) {
            for (int x = 0; x < b.w(); ++x) {
              dx->at(n, c, y, x) += top_grad.at(n, c_off + c, y, x);
            }
          }
        }
      }
      c_off += b.c();
    }
  }
}

// --- EltwiseAdd -------------------------------------------------------------------

void EltwiseAdd::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() >= 2, "EltwiseAdd: needs at least two bottoms");
  for (const Tensor* b : bottoms) {
    check(b->same_shape(*bottoms[0]), "EltwiseAdd: mismatched shapes");
  }
  top.reshape(bottoms[0]->shape());
}

void EltwiseAdd::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                         bool /*train*/) {
  top.zero();
  for (const Tensor* b : bottoms) {
    for (std::size_t i = 0; i < top.size(); ++i) top[i] += (*b)[i];
  }
}

void EltwiseAdd::backward(const std::vector<const Tensor*>& /*bottoms*/, const Tensor& /*top*/,
                          const Tensor& top_grad,
                          const std::vector<Tensor*>& bottom_grads) {
  for (Tensor* dx : bottom_grads) {
    if (dx == nullptr) continue;
    for (std::size_t i = 0; i < top_grad.size(); ++i) (*dx)[i] += top_grad[i];
  }
}

// --- SoftmaxCrossEntropy ------------------------------------------------------------

void SoftmaxCrossEntropy::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 2, "SoftmaxCrossEntropy: expects {logits, labels}");
  const Tensor& logits = *bottoms[0];
  const Tensor& labels = *bottoms[1];
  check(logits.rank() == 2, "SoftmaxCrossEntropy: logits must be [N,K]");
  check(labels.size() == static_cast<std::size_t>(logits.dim(0)),
        "SoftmaxCrossEntropy: one label per sample");
  top.reshape({1});
}

void SoftmaxCrossEntropy::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                                  bool /*train*/) {
  const Tensor& logits = *bottoms[0];
  const Tensor& labels = *bottoms[1];
  const int batch = logits.dim(0);
  const int classes = logits.dim(1);
  probs_.reshape({batch, classes});
  double loss = 0.0;
  for (int n = 0; n < batch; ++n) {
    const float* row = logits.data() + static_cast<std::size_t>(n) * classes;
    float* prow = probs_.data() + static_cast<std::size_t>(n) * classes;
    const float maxv = *std::max_element(row, row + classes);
    double denom = 0.0;
    for (int k = 0; k < classes; ++k) {
      prow[k] = std::exp(row[k] - maxv);
      denom += prow[k];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (int k = 0; k < classes; ++k) prow[k] *= inv;
    const int label = static_cast<int>(labels[static_cast<std::size_t>(n)]);
    check(label >= 0 && label < classes, "SoftmaxCrossEntropy: label out of range");
    loss -= std::log(std::max(static_cast<double>(prow[label]), 1e-12));
  }
  top[0] = static_cast<float>(loss / batch);
}

void SoftmaxCrossEntropy::backward(const std::vector<const Tensor*>& bottoms,
                                   const Tensor& /*top*/, const Tensor& top_grad,
                                   const std::vector<Tensor*>& bottom_grads) {
  const Tensor& labels = *bottoms[1];
  Tensor* dlogits = bottom_grads[0];
  if (dlogits == nullptr) return;
  const int batch = probs_.dim(0);
  const int classes = probs_.dim(1);
  const float scale = top_grad[0] / static_cast<float>(batch);
  for (int n = 0; n < batch; ++n) {
    const float* prow = probs_.data() + static_cast<std::size_t>(n) * classes;
    float* grow = dlogits->data() + static_cast<std::size_t>(n) * classes;
    const int label = static_cast<int>(labels[static_cast<std::size_t>(n)]);
    for (int k = 0; k < classes; ++k) {
      grow[k] += scale * (prow[k] - (k == label ? 1.0F : 0.0F));
    }
  }
}

}  // namespace shmcaffe::dl
