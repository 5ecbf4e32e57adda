// Tests of dl's dense-product engine (the tiled GEMM behind Conv2d and
// FullyConnected):
//   * against a direct convolution oracle kept here, across a sweep of
//     geometries (forward, dx, dW and db within float tolerance);
//   * bitwise against the serial dot-product loops the engine replaced —
//     FullyConnected::forward's per-output chain, Conv2d's per-sample dW
//     and db chains, and its dx (per-row dcol chains, then the row-order
//     col2im scatter) — at pool widths 1, 2 and 4;
//   * end to end: one-worker training runs whose final loss must equal the
//     value recorded before the engine existed.
// The `simd` label re-runs all of it in the forced-scalar tree, so the
// expectations also pin the SIMD tiers to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "dl/layers.h"

namespace shmcaffe::dl {
namespace {

namespace parallel = common::parallel;

struct Geometry {
  int batch;
  int in_channels;
  int out_channels;
  int height;
  int width;
  int kernel;
  int stride;
  int pad;
};

// --- direct convolution oracle ---------------------------------------------
// The straightforward loops over (n, oc, y, x, ic, ky, kx): no lowering, no
// tiling.  They sum in a different order from the engine, so comparisons
// against them carry a float tolerance.

void direct_forward(const Geometry& g, const Tensor& w, const Tensor& b, const Tensor& x,
                    Tensor& top) {
  for (int n = 0; n < x.n(); ++n) {
    for (int oc = 0; oc < g.out_channels; ++oc) {
      for (int y = 0; y < top.h(); ++y) {
        for (int xo = 0; xo < top.w(); ++xo) {
          float acc = b[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < g.in_channels; ++ic) {
            for (int ky = 0; ky < g.kernel; ++ky) {
              const int iy = y * g.stride + ky - g.pad;
              if (iy < 0 || iy >= x.h()) continue;
              for (int kx = 0; kx < g.kernel; ++kx) {
                const int ix = xo * g.stride + kx - g.pad;
                if (ix < 0 || ix >= x.w()) continue;
                acc += w.at(oc, ic, ky, kx) * x.at(n, ic, iy, ix);
              }
            }
          }
          top.at(n, oc, y, xo) = acc;
        }
      }
    }
  }
}

void direct_backward(const Geometry& g, const Tensor& w, const Tensor& x,
                     const Tensor& top_grad, Tensor& dw, Tensor& db, Tensor* dx) {
  for (int n = 0; n < x.n(); ++n) {
    for (int oc = 0; oc < g.out_channels; ++oc) {
      for (int y = 0; y < top_grad.h(); ++y) {
        for (int xo = 0; xo < top_grad.w(); ++xo) {
          const float grad = top_grad.at(n, oc, y, xo);
          if (grad == 0.0F) continue;
          db[static_cast<std::size_t>(oc)] += grad;
          for (int ic = 0; ic < g.in_channels; ++ic) {
            for (int ky = 0; ky < g.kernel; ++ky) {
              const int iy = y * g.stride + ky - g.pad;
              if (iy < 0 || iy >= x.h()) continue;
              for (int kx = 0; kx < g.kernel; ++kx) {
                const int ix = xo * g.stride + kx - g.pad;
                if (ix < 0 || ix >= x.w()) continue;
                dw.at(oc, ic, ky, kx) += grad * x.at(n, ic, iy, ix);
                if (dx != nullptr) dx->at(n, ic, iy, ix) += grad * w.at(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
}

class ConvEngines : public ::testing::TestWithParam<Geometry> {};

TEST_P(ConvEngines, ForwardAndBackwardAgree) {
  const Geometry g = GetParam();
  Conv2d gemm("g", g.in_channels, g.out_channels, g.kernel, g.stride, g.pad);
  common::Rng rng(31);
  gemm.init_params(rng);
  const Tensor& w = gemm.params()[0]->value;
  const Tensor& b = gemm.params()[1]->value;

  Tensor x({g.batch, g.in_channels, g.height, g.width});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));

  Tensor top_direct;
  Tensor top_gemm;
  gemm.setup({&x}, top_gemm);
  top_direct.reshape(top_gemm.shape());
  direct_forward(g, w, b, x, top_direct);
  gemm.forward({&x}, top_gemm, true);
  for (std::size_t i = 0; i < top_direct.size(); ++i) {
    ASSERT_NEAR(top_direct[i], top_gemm[i], 1e-4F) << "forward element " << i;
  }

  Tensor top_grad;
  top_grad.reshape(top_direct.shape());
  for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor dx_direct;
  dx_direct.reshape(x.shape());
  Tensor dx_gemm;
  dx_gemm.reshape(x.shape());
  Tensor dw_direct;
  dw_direct.reshape(w.shape());
  Tensor db_direct;
  db_direct.reshape(b.shape());
  std::vector<Tensor*> grads_gemm{&dx_gemm};
  direct_backward(g, w, x, top_grad, dw_direct, db_direct, &dx_direct);
  gemm.backward({&x}, top_gemm, top_grad, grads_gemm);

  for (std::size_t i = 0; i < dx_direct.size(); ++i) {
    ASSERT_NEAR(dx_direct[i], dx_gemm[i], 1e-3F) << "dx element " << i;
  }
  const Tensor* direct_grads[] = {&dw_direct, &db_direct};
  for (std::size_t p = 0; p < 2; ++p) {
    const auto gd = direct_grads[p]->span();
    const auto gg = gemm.params()[p]->grad.span();
    for (std::size_t i = 0; i < gd.size(); ++i) {
      ASSERT_NEAR(gd[i], gg[i], 2e-3F) << "param " << p << " grad " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvEngines,
    ::testing::Values(Geometry{1, 1, 1, 5, 5, 3, 1, 1},     // minimal
                      Geometry{2, 3, 8, 12, 12, 3, 1, 1},   // typical model layer
                      Geometry{3, 4, 6, 9, 7, 3, 2, 1},     // strided, non-square
                      Geometry{2, 8, 4, 8, 8, 1, 1, 0},     // 1x1 projection
                      Geometry{1, 2, 2, 11, 11, 5, 2, 2},   // big kernel, stride 2
                      Geometry{2, 3, 5, 6, 6, 3, 3, 0},     // stride == kernel
                      Geometry{2, 3, 4, 2, 5, 3, 1, 2},     // shorter than the kernel
                      Geometry{1, 2, 3, 6, 2, 5, 1, 2},     // narrower than the kernel
                      Geometry{2, 2, 3, 5, 5, 3, 1, 3},     // pad == kernel
                      Geometry{1, 2, 2, 4, 4, 2, 2, 3},     // pad > kernel, stride 2
                      Geometry{2, 4, 3, 7, 7, 1, 2, 0},     // 1x1 at stride 2
                      Geometry{2, 3, 4, 8, 9, 3, 2, 0}));   // stride 2, odd width

TEST(ConvEngines, NullBottomGradSupportedByBoth) {
  const Geometry g{1, 2, 3, 6, 6, 3, 1, 1};
  Conv2d conv("c", g.in_channels, g.out_channels, g.kernel, g.stride, g.pad);
  common::Rng rng(5);
  conv.init_params(rng);
  Tensor x({g.batch, g.in_channels, g.height, g.width});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor top;
  conv.setup({&x}, top);
  conv.forward({&x}, top, true);
  Tensor top_grad;
  top_grad.reshape(top.shape());
  top_grad.fill(0.1F);
  std::vector<Tensor*> grads{nullptr};
  EXPECT_NO_THROW(conv.backward({&x}, top, top_grad, grads));

  Tensor dw;
  dw.reshape(conv.params()[0]->value.shape());
  Tensor db;
  db.reshape(conv.params()[1]->value.shape());
  direct_backward(g, conv.params()[0]->value, x, top_grad, dw, db, nullptr);
  for (std::size_t i = 0; i < dw.size(); ++i) {
    ASSERT_NEAR(dw[i], conv.params()[0]->grad[i], 2e-3F) << "dW element " << i;
  }
}

// --- bitwise against the serial loops the engine replaced -------------------
// Each output element of the engine must sum in the serial loop's order:
// its init first, then every product in ascending k, multiply and add kept
// separate.  No tolerance anywhere below.

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void fill_uniform(Tensor& t, common::Rng& rng) {
  for (float& v : t.span()) v = static_cast<float>(rng.uniform(-1, 1));
}

/// FullyConnected::forward as one serial chain per output: bias, then
/// w[o][i] * x[n][i] for i ascending.
std::vector<float> serial_fc_forward(const Tensor& w, const Tensor& b, const Tensor& x,
                                     int in_features, int out_features) {
  std::vector<float> y(static_cast<std::size_t>(x.dim(0)) * out_features);
  for (int n = 0; n < x.dim(0); ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in_features;
    for (int o = 0; o < out_features; ++o) {
      const float* wrow = w.data() + static_cast<std::size_t>(o) * in_features;
      float acc = b[static_cast<std::size_t>(o)];
      for (int i = 0; i < in_features; ++i) acc += wrow[i] * xn[i];
      y[static_cast<std::size_t>(n) * out_features + o] = acc;
    }
  }
  return y;
}

struct FcShape {
  int in_features;
  int out_features;
};

TEST(FcEngine, ForwardMatchesSerialDotBitwise) {
  // Feature counts off every multiple of 8 and 256, so both tile edges are
  // partial, and output counts of 1-3 mod 4 leave every remainder of the
  // 4-row register block.  Batches (the product's columns) cover the 16-
  // and 8-column blocks and their scalar tails (36 = 16 + 16 + 4).
  // mini_vgg's fc1 (1152 -> 128) runs inline up to batch 14 and fans out
  // from batch 16 on; 4099 -> 17 fans out at batch 36 and 64.
  const FcShape shapes[] = {{1, 1}, {13, 3}, {300, 37}, {1029, 10}, {1152, 128}, {4099, 17}};
  for (const FcShape& shape : shapes) {
    for (const int batch : {1, 7, 8, 9, 12, 16, 17, 24, 36, 64}) {
      FullyConnected fc("fc", shape.in_features, shape.out_features);
      common::Rng rng(static_cast<std::uint64_t>(shape.in_features * 131 + batch));
      fc.init_params(rng);
      fill_uniform(fc.params()[1]->value, rng);  // a nonzero bias seeds every chain
      Tensor x({batch, shape.in_features});
      fill_uniform(x, rng);
      const std::vector<float> expect =
          serial_fc_forward(fc.params()[0]->value, fc.params()[1]->value, x,
                            shape.in_features, shape.out_features);
      for (const int threads : {1, 2, 4}) {
        parallel::set_thread_count(threads);
        Tensor top;
        fc.setup({&x}, top);
        fc.forward({&x}, top, false);
        EXPECT_TRUE(same_bits(top.span(), expect))
            << shape.in_features << "->" << shape.out_features << " batch " << batch
            << " threads " << threads;
      }
    }
  }
}

/// Sample `n` of x lowered to col[r][c] (0 at padded positions), r over
/// (ic, ky, kx) and c over output positions.
std::vector<float> lower(const Geometry& g, const Tensor& x, int n, int oh, int ow) {
  const int columns = oh * ow;
  const int kk = g.in_channels * g.kernel * g.kernel;
  std::vector<float> col(static_cast<std::size_t>(kk) * columns);
  for (int r = 0; r < kk; ++r) {
    const int ic = r / (g.kernel * g.kernel);
    const int ky = r % (g.kernel * g.kernel) / g.kernel;
    const int kx = r % g.kernel;
    for (int c = 0; c < columns; ++c) {
      const int iy = c / ow * g.stride + ky - g.pad;
      const int ix = c % ow * g.stride + kx - g.pad;
      const bool inside = iy >= 0 && iy < x.h() && ix >= 0 && ix < x.w();
      col[static_cast<std::size_t>(r) * columns + c] = inside ? x.at(n, ic, iy, ix) : 0.0F;
    }
  }
  return col;
}

/// Conv2d forward as one serial chain per output: bias, then w[oc][r] *
/// col[r][c] for r ascending.
std::vector<float> serial_conv_forward(const Geometry& g, const Tensor& w, const Tensor& b,
                                       const Tensor& x, int oh, int ow) {
  const int columns = oh * ow;
  const int kk = g.in_channels * g.kernel * g.kernel;
  std::vector<float> top(static_cast<std::size_t>(x.n()) * g.out_channels * columns);
  for (int n = 0; n < x.n(); ++n) {
    const std::vector<float> col = lower(g, x, n, oh, ow);
    for (int oc = 0; oc < g.out_channels; ++oc) {
      for (int c = 0; c < columns; ++c) {
        float acc = b[static_cast<std::size_t>(oc)];
        for (int r = 0; r < kk; ++r) {
          acc += w[static_cast<std::size_t>(oc) * kk + r] *
                 col[static_cast<std::size_t>(r) * columns + c];
        }
        top[(static_cast<std::size_t>(n) * g.out_channels + oc) * columns + c] = acc;
      }
    }
  }
  return top;
}

/// Conv2d's weight and bias gradients as the serial loops computed them:
/// per sample, one chain per (oc, r) over the lowered columns in ascending
/// order, added into dW — and one chain per oc over dY for db — in sample
/// order.
void serial_conv_param_grads(const Geometry& g, const Tensor& x, const Tensor& top_grad,
                             std::vector<float>& dw, std::vector<float>& db) {
  const int oh = top_grad.h();
  const int ow = top_grad.w();
  const int columns = oh * ow;
  const int kk = g.in_channels * g.kernel * g.kernel;
  for (int n = 0; n < x.n(); ++n) {
    const std::vector<float> col = lower(g, x, n, oh, ow);
    for (int oc = 0; oc < g.out_channels; ++oc) {
      const float* grow = top_grad.data() + (static_cast<std::size_t>(n) * g.out_channels + oc) *
                                                static_cast<std::size_t>(columns);
      float bias_acc = 0.0F;
      for (int c = 0; c < columns; ++c) bias_acc += grow[c];
      db[static_cast<std::size_t>(oc)] += bias_acc;
      for (int r = 0; r < kk; ++r) {
        const float* crow = col.data() + static_cast<std::size_t>(r) * columns;
        float acc = 0.0F;
        for (int c = 0; c < columns; ++c) acc += grow[c] * crow[c];
        dw[static_cast<std::size_t>(oc) * kk + r] += acc;
      }
    }
  }
}

/// Conv2d's input gradient as the serial loops compute it: per sample, one
/// chain per dcol element, w[oc][r] * dY[oc][c] for oc ascending from 0,
/// then dcol added into dx row by row, (ic, ky, kx) then (y, xo), skipping
/// padded positions.
void serial_conv_dx(const Geometry& g, const Tensor& w, const Tensor& top_grad, Tensor& dx) {
  const int oh = top_grad.h();
  const int ow = top_grad.w();
  const int columns = oh * ow;
  const int kk = g.in_channels * g.kernel * g.kernel;
  std::vector<float> dcol(static_cast<std::size_t>(kk) * columns);
  for (int n = 0; n < dx.n(); ++n) {
    for (int r = 0; r < kk; ++r) {
      for (int c = 0; c < columns; ++c) {
        float acc = 0.0F;
        for (int oc = 0; oc < g.out_channels; ++oc) {
          acc += w[static_cast<std::size_t>(oc) * kk + r] * top_grad.at(n, oc, c / ow, c % ow);
        }
        dcol[static_cast<std::size_t>(r) * columns + c] = acc;
      }
    }
    for (int r = 0; r < kk; ++r) {
      const int ic = r / (g.kernel * g.kernel);
      const int ky = r % (g.kernel * g.kernel) / g.kernel;
      const int kx = r % g.kernel;
      for (int c = 0; c < columns; ++c) {
        const int iy = c / ow * g.stride + ky - g.pad;
        const int ix = c % ow * g.stride + kx - g.pad;
        if (iy < 0 || iy >= dx.h() || ix < 0 || ix >= dx.w()) continue;
        dx.at(n, ic, iy, ix) += dcol[static_cast<std::size_t>(r) * columns + c];
      }
    }
  }
}

TEST(ConvEngines, ForwardAndWeightGradMatchSerialDotBitwise) {
  // kk of 9, 45, 144 and 288 (two column tiles); 1 to 576 output columns;
  // output-channel counts (forward's rows) and kk (the weight and input
  // gradients' rows) of 1-3 mod 4 for every remainder of the 4-row register
  // block; columns (forward's and dcol's block width) and output channels
  // (the weight gradient's) that fill 16- and 8-column blocks and leave
  // scalar tails; and the lowering's run bounds: whole rows of padding,
  // output columns with no valid input, a 1x1 kernel at stride 2 and stride
  // 2 on an odd width.  The 32 -> 64 conv at 24x24 (about 10.6M
  // multiply-adds per product) and the 32 -> 26 conv at 21x21 (3.3M, with
  // 8-column blocks in every product) fan their products out; mini_vgg's
  // conv1_2 and everything smaller run inline.
  const Geometry geometries[] = {
      {1, 1, 3, 3, 3, 3, 1, 0},       // kk 9, 1 column
      {7, 5, 9, 5, 7, 3, 1, 1},       // kk 45, 35 columns
      {8, 16, 12, 12, 12, 3, 1, 1},   // kk 144, 144 columns
      {9, 1, 17, 24, 24, 3, 1, 1},    // kk 9, 576 columns
      {17, 5, 8, 11, 11, 3, 2, 1},    // kk 45, 36 columns, strided
      {64, 16, 5, 3, 3, 3, 1, 1},     // kk 144, 9 columns
      {2, 32, 7, 6, 6, 3, 1, 1},      // kk 288, 36 columns
      {3, 16, 6, 4, 4, 1, 1, 0},      // kk 16, 16 columns
      {2, 8, 5, 4, 2, 1, 1, 0},       // kk 8, 8 columns
      {2, 3, 8, 2, 5, 3, 1, 2},       // shorter than the kernel, padded
      {3, 2, 16, 6, 2, 5, 1, 2},      // narrower than the kernel, padded
      {2, 2, 3, 5, 5, 3, 1, 3},       // pad == kernel
      {2, 2, 5, 4, 4, 2, 2, 3},       // pad > kernel, stride 2
      {3, 4, 3, 7, 7, 1, 2, 0},       // 1x1 at stride 2
      {2, 3, 4, 8, 9, 3, 2, 0},       // stride 2, odd width
      {2, 3, 6, 7, 7, 3, 1, 1},       // kk 27 (3 mod 4), 6 output channels
      {2, 7, 11, 5, 5, 1, 1, 0},      // kk 7 (3 mod 4), 11 output channels
      {2, 2, 7, 5, 6, 1, 1, 0},       // kk 2, 30 columns (16 + 8 + 6)
      {4, 16, 4, 6, 6, 1, 1, 0},      // mini_inception 6x6 1x1: 36 columns, dW width 4
      {4, 16, 8, 6, 6, 1, 1, 0},      // ... dW width 8
      {4, 16, 12, 6, 6, 1, 1, 0},     // ... dW width 12
      {4, 8, 12, 6, 6, 3, 1, 1},      // mini_inception 6x6 3x3
      {2, 16, 16, 24, 24, 3, 1, 1},   // mini_vgg conv1_2: inline
      {2, 32, 64, 24, 24, 3, 1, 1},   // fans out
      {2, 32, 26, 21, 21, 3, 1, 1},   // fans out: 441 columns (27 x 16 + 8 + 1), dW width 26
  };
  for (const Geometry& g : geometries) {
    Conv2d conv("c", g.in_channels, g.out_channels, g.kernel, g.stride, g.pad);
    common::Rng rng(static_cast<std::uint64_t>(g.batch * 977 + g.in_channels));
    conv.init_params(rng);
    fill_uniform(conv.params()[1]->value, rng);  // a nonzero bias seeds every chain
    Tensor x({g.batch, g.in_channels, g.height, g.width});
    fill_uniform(x, rng);
    Tensor top;
    conv.setup({&x}, top);
    Tensor top_grad;
    top_grad.reshape(top.shape());
    fill_uniform(top_grad, rng);
    // Start from nonzero gradients: the per-sample partials add into them.
    std::vector<float> dw0(conv.params()[0]->grad.size());
    std::vector<float> db0(conv.params()[1]->grad.size());
    for (float& v : dw0) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : db0) v = static_cast<float>(rng.uniform(-1, 1));
    const std::vector<float> top_expect = serial_conv_forward(
        g, conv.params()[0]->value, conv.params()[1]->value, x, top.h(), top.w());
    std::vector<float> dw_expect = dw0;
    std::vector<float> db_expect = db0;
    serial_conv_param_grads(g, x, top_grad, dw_expect, db_expect);
    // dx starts nonzero too: col2im adds into it.
    Tensor dx0;
    dx0.reshape(x.shape());
    fill_uniform(dx0, rng);
    Tensor dx_expect;
    dx_expect.reshape(x.shape());
    std::copy(dx0.span().begin(), dx0.span().end(), dx_expect.span().begin());
    serial_conv_dx(g, conv.params()[0]->value, top_grad, dx_expect);

    for (const int threads : {1, 2, 4}) {
      parallel::set_thread_count(threads);
      std::copy(dw0.begin(), dw0.end(), conv.params()[0]->grad.span().begin());
      std::copy(db0.begin(), db0.end(), conv.params()[1]->grad.span().begin());
      conv.forward({&x}, top, true);
      EXPECT_TRUE(same_bits(top.span(), top_expect))
          << "forward, kk " << g.in_channels * g.kernel * g.kernel << " oc " << g.out_channels
          << " columns " << top.h() * top.w() << " batch " << g.batch << " threads " << threads;
      Tensor dx;
      dx.reshape(x.shape());
      std::copy(dx0.span().begin(), dx0.span().end(), dx.span().begin());
      std::vector<Tensor*> grads{&dx};
      conv.backward({&x}, top, top_grad, grads);
      EXPECT_TRUE(same_bits(dx.span(), dx_expect.span()))
          << "dx, kk " << g.in_channels * g.kernel * g.kernel << " oc " << g.out_channels
          << " columns " << top.h() * top.w() << " batch " << g.batch << " threads " << threads;
      EXPECT_TRUE(same_bits(conv.params()[0]->grad.span(), dw_expect))
          << "dW, kk " << g.in_channels * g.kernel * g.kernel << " oc " << g.out_channels
          << " columns " << top.h() * top.w() << " batch " << g.batch << " threads " << threads;
      EXPECT_TRUE(same_bits(conv.params()[1]->grad.span(), db_expect))
          << "db, batch " << g.batch << " threads " << threads;
    }
  }
}

// --- golden end-to-end runs -------------------------------------------------
// One worker (or one synchronous group), so the only inputs to the final
// loss are the seed and the kernels' float order.  The one-worker constants
// were recorded before FullyConnected and the conv weight gradient moved
// onto the tiled engine, the hybrid one before the trainer's exchange moved
// into core/exchange: any change in any output element's summation order
// shows up here.

core::DistTrainOptions one_worker_run(const char* model, int side, int batch) {
  core::DistTrainOptions options;
  options.model_family = model;
  options.workers = 1;
  options.group_size = 1;
  options.input = ModelInputSpec{1, side, side, 5};
  options.train_data.channels = 1;
  options.train_data.height = side;
  options.train_data.width = side;
  options.train_data.classes = 5;
  options.train_data.size = 320;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 96;
  options.test_data.seed = 0x7e57;
  options.batch_size = batch;
  options.epochs = 1;
  return options;
}

TEST(GoldenRun, OneWorkerMlpFinalLossIsUnchanged) {
  parallel::set_thread_count(4);
  const core::TrainResult result = core::train_shmcaffe(one_worker_run("mlp", 11, 13));
  EXPECT_EQ(result.final_loss, 0.48504199584325153);
}

TEST(GoldenRun, OneWorkerMiniVggFinalLossIsUnchanged) {
  parallel::set_thread_count(4);
  const core::TrainResult result = core::train_shmcaffe(one_worker_run("mini_vgg", 12, 9));
  EXPECT_EQ(result.final_loss, 0.21864684919516245);
}

// Two workers in one hybrid group: the root exchanges with the SMB, the
// member follows through the allreduce and the broadcast.  The master's
// criterion fixes the stop iteration; under kAverageIterations it would
// depend on whether the member's report lands before the root's vote.
TEST(GoldenRun, TwoWorkerHybridMlpFinalLossIsUnchanged) {
  parallel::set_thread_count(4);
  core::DistTrainOptions options = one_worker_run("mlp", 11, 13);
  options.workers = 2;
  options.group_size = 2;
  options.termination = core::TerminationCriterion::kMasterFinishes;
  const core::TrainResult result = core::train_shmcaffe(options);
  EXPECT_EQ(result.final_loss, 0.88776616255442298);
}

}  // namespace
}  // namespace shmcaffe::dl
