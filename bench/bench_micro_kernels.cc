// Micro-kernel throughput snapshot for the deterministic work pool.
// Measures the pooled hot paths — Conv2d im2col+GEMM forward/backward (a
// ShmCaffe-A-sized block and mini_vgg's conv1_2),
// FullyConnected forward on the same tiled GEMM engine, the fused SEASGD
// elastic exchange (eqs. 5+6), the SMB server-side accumulate (eq. 7) and
// the synthetic dataset's batch fill — each at pool widths 1, 2 and 4, plus
// single-threaded references: the pre-pool conv GEMM (row-at-a-time,
// per-call scratch), the serial per-output dot product FullyConnected used
// before the engine, and the per-pixel image generator, so the speedup of
// the tuned kernels is visible in the numbers themselves.  Both conv
// geometries' products (1.2M and 1.3M multiply-adds per sample) sit below
// the GEMM engine's inline threshold, so their _t2 and _t4 rows run inline
// and read what _t1 reads: conv1_2_bwd_t2 and _t4 no longer gain from the
// fan-out dcol had before it ran on the engine.  fc_fwd (4.2M) still fans
// out.
//
// Output is one JSON document.  Timings vary run to run, but the layout is
// fixed and every kernel row carries a `checksum` computed from the kernel's
// float outputs in a fixed order.  Two bitwise contracts are asserted here:
// the rows of one kernel agree across pool widths (the work pool's
// determinism contract), and each tuned kernel agrees with its reference
// (the tuned kernels keep the reference's float order).  A `host` line
// (core count, SIMD tier) names the machine.  `tools/check.sh bench`
// snapshots the per-row median of three runs into BENCH_kernels.json and
// refuses to overwrite the baseline on a >20% throughput regression, or when
// the baseline came from another host, unless forced.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/seasgd_math.h"
#include "data/synth_dataset.h"
#include "dl/layers.h"
#include "smb/server.h"

namespace {

using namespace shmcaffe;
using Clock = std::chrono::steady_clock;

// Conv geometry: ShmCaffe-A-sized block (16 -> 32 channels, 3x3, 16x16
// feature map, batch 8).  2 * kk * oc * columns * N ~ 19 MFLOP per pass.
constexpr int kBatch = 8;
constexpr int kInC = 16;
constexpr int kOutC = 32;
constexpr int kSide = 16;
constexpr int kFwdReps = 40;
constexpr int kBwdReps = 20;

/// One timed Conv2d geometry (3x3, stride 1, pad 1), its key in the
/// document and its row names.
struct ConvShape {
  const char* key;
  const char* fwd_row;
  const char* bwd_row;
  int batch;
  int in_c;
  int out_c;
  int side;
  int fwd_reps;
  int bwd_reps;
};
constexpr ConvShape kConvBlock{"conv", "conv_fwd", "conv_bwd", kBatch, kInC, kOutC, kSide,
                               kFwdReps, kBwdReps};
// mini_vgg's conv1_2 (16 -> 16 channels at 24x24, batch 16), where the
// lowering is a larger share of a pass than in the block above: ~42 MFLOP.
constexpr ConvShape kConvVgg{"conv1_2", "conv1_2_fwd", "conv1_2_bwd", 16, 16, 16, 24, 20, 10};
// FullyConnected geometry: fc1 of the seasgd-wide workload (batch 16,
// 64x64 inputs -> 64 hidden units).  2 * 16 * 4096 * 64 ~ 8.4 MFLOP.
constexpr int kFcBatch = 16;
constexpr int kFcIn = 4096;
constexpr int kFcOut = 64;
constexpr int kFcReps = 40;
// Batch fill: one seasgd-wide minibatch (16 samples, 1 x 64 x 64) at
// noise 1.0; 16 consecutive indices cover every class twice.
constexpr int kFillBatch = 16;
constexpr int kFillSide = 64;
constexpr int kFillReps = 8;
constexpr double kFillPixels = static_cast<double>(kFillBatch) * kFillSide * kFillSide;
// SEASGD / SMB span: 4M floats (a ShmCaffe-B-scale parameter buffer).
constexpr std::size_t kSpan = 4U << 20;
constexpr int kSpanReps = 12;
constexpr double kSpanBytes = static_cast<double>(kSpan) * sizeof(float);

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every row is timed as best-of-N batches, not one long window: on a shared
// (often single-core) box a scheduler hiccup inside the window would poison
// the whole row, while the fastest batch approximates the machine's
// uncontended rate.  The checksum contract is unaffected — every batch runs
// the same work.
constexpr int kTimingBatches = 6;

template <typename Body>
double best_of(int reps_per_batch, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < kTimingBatches; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < reps_per_batch; ++i) body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Fixed-order float checksum; bitwise identical inputs give identical sums.
double checksum(const float* data, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(data[i]);
  return sum;
}

struct Row {
  const char* name;
  int threads;
  double ms;          // per iteration
  double throughput;  // GFLOP/s for conv, Gelem/s for span kernels
  const char* units;
  double gb_per_s;    // memory-stream rate: bytes touched per iteration / time
  double check;
};

std::vector<Row> rows;

void emit(const char* name, int threads, double total_seconds, int reps, double work,
          const char* units, double bytes, double check) {
  const double per_iter = total_seconds / reps;
  rows.push_back(Row{name, threads, per_iter * 1e3, work / per_iter * 1e-9, units,
                     bytes / per_iter * 1e-9, check});
}

/// The named row, or null if absent.
const Row* row_of(std::string_view name, int threads) {
  for (const Row& r : rows) {
    if (std::string_view(r.name) == name && r.threads == threads) return &r;
  }
  return nullptr;
}

// --- scalar reference: the pre-pool conv GEMM ------------------------------
// Row-at-a-time products with the data-dependent zero-skip and a fresh dcol
// allocation per backward call, exactly as the engine looked before the
// tiling port.  Kept here (not in the library) purely as the bench baseline.

struct RefConv {
  int in_c, out_c, k, stride, pad, oh, ow;
  std::vector<float> col;

  void im2col(const dl::Tensor& x, int n) {
    const int columns = oh * ow;
    col.assign(static_cast<std::size_t>(in_c) * k * k * columns, 0.0F);
    std::size_t row = 0;
    for (int ic = 0; ic < in_c; ++ic) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx, ++row) {
          float* dst = col.data() + row * static_cast<std::size_t>(columns);
          for (int y = 0; y < oh; ++y) {
            const int iy = y * stride + ky - pad;
            if (iy < 0 || iy >= x.h()) {
              dst += ow;
              continue;
            }
            for (int xo = 0; xo < ow; ++xo, ++dst) {
              const int ix = xo * stride + kx - pad;
              if (ix >= 0 && ix < x.w()) *dst = x.at(n, ic, iy, ix);
            }
          }
        }
      }
    }
  }

  void forward(const dl::Tensor& x, const float* w, const float* bias, dl::Tensor& top) {
    const int columns = oh * ow;
    const int kk = in_c * k * k;
    for (int n = 0; n < x.n(); ++n) {
      im2col(x, n);
      float* out = top.data() + static_cast<std::size_t>(n) * out_c * columns;
      for (int oc = 0; oc < out_c; ++oc) {
        float* orow = out + static_cast<std::size_t>(oc) * columns;
        std::fill(orow, orow + columns, bias[oc]);
        const float* wrow = w + static_cast<std::size_t>(oc) * kk;
        for (int r = 0; r < kk; ++r) {
          const float wv = wrow[r];
          if (wv == 0.0F) continue;
          const float* crow = col.data() + static_cast<std::size_t>(r) * columns;
          for (int c = 0; c < columns; ++c) orow[c] += wv * crow[c];
        }
      }
    }
  }

  void backward(const dl::Tensor& x, const dl::Tensor& gout_t, const float* w, float* dw,
                float* db, dl::Tensor* dx) {
    const int columns = oh * ow;
    const int kk = in_c * k * k;
    std::vector<float> dcol(static_cast<std::size_t>(kk) * columns);
    for (int n = 0; n < x.n(); ++n) {
      im2col(x, n);
      const float* gout =
          gout_t.data() + static_cast<std::size_t>(n) * out_c * columns;
      std::fill(dcol.begin(), dcol.end(), 0.0F);
      for (int oc = 0; oc < out_c; ++oc) {
        const float* grow = gout + static_cast<std::size_t>(oc) * columns;
        float bias_acc = 0.0F;
        for (int c = 0; c < columns; ++c) bias_acc += grow[c];
        db[oc] += bias_acc;
        float* dwrow = dw + static_cast<std::size_t>(oc) * kk;
        const float* wrow = w + static_cast<std::size_t>(oc) * kk;
        for (int r = 0; r < kk; ++r) {
          const float* crow = col.data() + static_cast<std::size_t>(r) * columns;
          float acc = 0.0F;
          for (int c = 0; c < columns; ++c) acc += grow[c] * crow[c];
          dwrow[r] += acc;
          if (dx != nullptr && wrow[r] != 0.0F) {
            float* drow = dcol.data() + static_cast<std::size_t>(r) * columns;
            for (int c = 0; c < columns; ++c) drow[c] += wrow[r] * grow[c];
          }
        }
      }
      if (dx == nullptr) continue;
      std::size_t row = 0;
      for (int ic = 0; ic < in_c; ++ic) {
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx, ++row) {
            const float* drow = dcol.data() + row * static_cast<std::size_t>(columns);
            for (int y = 0; y < oh; ++y) {
              const int iy = y * stride + ky - pad;
              if (iy < 0 || iy >= x.h()) continue;
              for (int xo = 0; xo < ow; ++xo) {
                const int ix = xo * stride + kx - pad;
                if (ix >= 0 && ix < x.w()) dx->at(n, ic, iy, ix) += drow[y * ow + xo];
              }
            }
          }
        }
      }
    }
  }
};

// --- kernels ----------------------------------------------------------------

void bench_conv(const ConvShape& shape, int threads) {
  common::parallel::set_thread_count(threads);
  dl::Conv2d conv("c", shape.in_c, shape.out_c, 3, 1, 1);
  common::Rng rng(7);
  conv.init_params(rng);
  dl::Tensor x({shape.batch, shape.in_c, shape.side, shape.side});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor top;
  conv.setup({&x}, top);
  conv.forward({&x}, top, true);  // size the arenas outside the timed loop

  const double columns = static_cast<double>(shape.side) * shape.side;
  const double kk = static_cast<double>(shape.in_c) * 9;
  const double flops = 2.0 * kk * shape.out_c * columns * shape.batch;

  const double fwd_best = best_of(shape.fwd_reps, [&] { conv.forward({&x}, top, true); });
  emit(shape.fwd_row, threads, fwd_best, shape.fwd_reps, flops, "gflops",
       flops / 2.0 * sizeof(float), checksum(top.data(), top.size()));

  dl::Tensor top_grad;
  top_grad.reshape(top.shape());
  for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  dl::Tensor x_grad;
  x_grad.reshape(x.shape());
  std::vector<dl::Tensor*> bottom_grads{&x_grad};
  conv.backward({&x}, top, top_grad, bottom_grads);  // size dcol_
  dl::Tensor& dw = conv.params()[0]->grad;
  dl::Tensor& db = conv.params()[1]->grad;
  const double bwd_best = best_of(shape.bwd_reps, [&] {
    x_grad.zero();
    dw.zero();
    db.zero();
    conv.backward({&x}, top, top_grad, bottom_grads);
  });
  // dW, dcol and col2im each stream the full GEMM volume: ~3x forward work.
  emit(shape.bwd_row, threads, bwd_best, shape.bwd_reps, 3.0 * flops, "gflops",
       3.0 * flops / 2.0 * sizeof(float),
       checksum(x_grad.data(), x_grad.size()) + checksum(dw.data(), dw.size()) +
           checksum(db.data(), db.size()));
}

void bench_conv_scalar_reference() {
  dl::Conv2d init("c", kInC, kOutC, 3, 1, 1);
  common::Rng rng(7);
  init.init_params(rng);
  dl::Tensor x({kBatch, kInC, kSide, kSide});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor top;
  init.setup({&x}, top);

  RefConv ref{kInC, kOutC, 3, 1, 1, top.h(), top.w(), {}};
  const float* w = init.params()[0]->value.data();
  const float* b = init.params()[1]->value.data();
  const double columns = static_cast<double>(kSide) * kSide;
  const double kk = static_cast<double>(kInC) * 9;
  const double flops = 2.0 * kk * kOutC * columns * kBatch;

  ref.forward(x, w, b, top);
  const double fwd_best = best_of(kFwdReps, [&] { ref.forward(x, w, b, top); });
  emit("conv_fwd_scalar_ref", 1, fwd_best, kFwdReps, flops, "gflops",
       flops / 2.0 * sizeof(float), checksum(top.data(), top.size()));

  dl::Tensor top_grad;
  top_grad.reshape(top.shape());
  for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  dl::Tensor x_grad;
  x_grad.reshape(x.shape());
  std::vector<float> dw(init.params()[0]->value.size());
  std::vector<float> db(init.params()[1]->value.size());
  const double bwd_best = best_of(kBwdReps, [&] {
    x_grad.zero();
    std::fill(dw.begin(), dw.end(), 0.0F);
    std::fill(db.begin(), db.end(), 0.0F);
    ref.backward(x, top_grad, w, dw.data(), db.data(), &x_grad);
  });
  emit("conv_bwd_scalar_ref", 1, bwd_best, kBwdReps, 3.0 * flops, "gflops",
       3.0 * flops / 2.0 * sizeof(float),
       checksum(x_grad.data(), x_grad.size()) + checksum(dw.data(), dw.size()) +
           checksum(db.data(), db.size()));
}

// FullyConnected forward on the tiled engine, and the serial loop it
// replaced: one bias-seeded dot-product chain per (sample, output), inputs
// ascending.  Both see the same weights and inputs.
struct FcSetup {
  dl::FullyConnected fc{"fc", kFcIn, kFcOut};
  dl::Tensor x{{kFcBatch, kFcIn}};
  dl::Tensor top;

  FcSetup() {
    common::Rng rng(23);
    fc.init_params(rng);
    for (float& v : fc.params()[1]->value.span()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
    fc.setup({&x}, top);
  }
};

constexpr double kFcFlops = 2.0 * kFcBatch * kFcIn * kFcOut;

void bench_fc(int threads) {
  common::parallel::set_thread_count(threads);
  FcSetup s;
  s.fc.forward({&s.x}, s.top, false);
  const double best = best_of(kFcReps, [&] { s.fc.forward({&s.x}, s.top, false); });
  emit("fc_fwd", threads, best, kFcReps, kFcFlops, "gflops", kFcFlops / 2.0 * sizeof(float),
       checksum(s.top.data(), s.top.size()));
}

void bench_fc_scalar_reference() {
  FcSetup s;
  const float* w = s.fc.params()[0]->value.data();
  const float* b = s.fc.params()[1]->value.data();
  const auto forward = [&] {
    for (int n = 0; n < kFcBatch; ++n) {
      const float* xn = s.x.data() + static_cast<std::size_t>(n) * kFcIn;
      for (int o = 0; o < kFcOut; ++o) {
        const float* wrow = w + static_cast<std::size_t>(o) * kFcIn;
        float acc = b[o];
        for (int i = 0; i < kFcIn; ++i) acc += wrow[i] * xn[i];
        s.top[static_cast<std::size_t>(n) * kFcOut + o] = acc;
      }
    }
  };
  forward();
  const double best = best_of(kFcReps, forward);
  emit("fc_fwd_scalar_ref", 1, best, kFcReps, kFcFlops, "gflops",
       kFcFlops / 2.0 * sizeof(float), checksum(s.top.data(), s.top.size()));
}

// SynthImageDataset::fill_batch, and the generator it replaced: every
// family's formula evaluated per pixel and per channel, then the same tint
// and noise draws.  Both fill the same indices from the same options.
data::SynthDatasetOptions fill_options() {
  data::SynthDatasetOptions options;
  options.channels = 1;
  options.height = kFillSide;
  options.width = kFillSide;
  options.size = 4096;
  options.noise_stddev = 1.0;
  return options;
}

double fill_checksum(const dl::Tensor& images, const dl::Tensor& labels) {
  return checksum(images.data(), images.size()) + checksum(labels.data(), labels.size());
}

void bench_synth_fill(int threads) {
  common::parallel::set_thread_count(threads);
  const data::SynthImageDataset dataset(fill_options());
  std::vector<std::size_t> indices(kFillBatch);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  dl::Tensor images;
  dl::Tensor labels;
  dataset.fill_batch(indices, images, labels);
  const double best = best_of(kFillReps, [&] { dataset.fill_batch(indices, images, labels); });
  emit("synth_fill", threads, best, kFillReps, kFillPixels, "gelems",
       kFillPixels * sizeof(float), fill_checksum(images, labels));
}

float ref_pattern_value(int cls, int y, int x, int height, int width, double phase_y,
                        double phase_x, double freq) {
  const double fy = (y + phase_y) * freq;
  const double fx = (x + phase_x) * freq;
  const double cy = height / 2.0 + phase_y;
  const double cx = width / 2.0 + phase_x;
  const double dy = y - cy;
  const double dx = x - cx;
  const double radius = std::sqrt(dy * dy + dx * dx);
  switch (cls) {
    case 0:
      return static_cast<float>(std::sin(fy));
    case 1:
      return static_cast<float>(std::sin(fx));
    case 2:
      return static_cast<float>(std::sin((fy + fx) * 0.7071));
    case 3:
      return static_cast<float>(std::sin(fy) * std::sin(fx));
    case 4:
      return static_cast<float>(std::sin(radius * freq * 2.0));
    case 5:
      return static_cast<float>(2.0 * std::exp(-radius * radius / (0.08 * height * width)) -
                                1.0);
    case 6:
      return static_cast<float>((static_cast<double>(y) / height +
                                 static_cast<double>(x) / width) -
                                1.0);
    case 7: {
      const bool on_cross = std::abs(dy) < height / 6.0 || std::abs(dx) < width / 6.0;
      return on_cross ? 1.0F : -1.0F;
    }
    default:
      return 0.0F;
  }
}

void bench_synth_fill_scalar_reference() {
  const data::SynthDatasetOptions options = fill_options();
  dl::Tensor images({kFillBatch, options.channels, options.height, options.width});
  dl::Tensor labels({kFillBatch});
  const auto fill = [&] {
    for (int n = 0; n < kFillBatch; ++n) {
      const auto index = static_cast<std::size_t>(n);
      const int cls = static_cast<int>(index % static_cast<std::size_t>(options.classes));
      common::Rng rng = common::Rng(options.seed).fork(index * 2654435761ULL + 1);
      const double phase_y = rng.uniform(0.0, 4.0);
      const double phase_x = rng.uniform(0.0, 4.0);
      const double freq = rng.uniform(0.9, 1.25) * (2.0 * M_PI / 8.0);
      const double amplitude = rng.uniform(0.7, 1.0);
      for (int c = 0; c < options.channels; ++c) {
        const double tint = rng.uniform(0.8, 1.2);
        for (int y = 0; y < options.height; ++y) {
          for (int x = 0; x < options.width; ++x) {
            const double base = ref_pattern_value(cls, y, x, options.height, options.width,
                                                  phase_y, phase_x, freq);
            images.at(n, c, y, x) = static_cast<float>(
                amplitude * tint * base + rng.normal(0.0, options.noise_stddev));
          }
        }
      }
      labels[index] = static_cast<float>(cls);
    }
  };
  fill();
  const double best = best_of(kFillReps, fill);
  emit("synth_fill_scalar_ref", 1, best, kFillReps, kFillPixels, "gelems",
       kFillPixels * sizeof(float), fill_checksum(images, labels));
}

void bench_seasgd(int threads) {
  common::parallel::set_thread_count(threads);
  common::Rng rng(11);
  std::vector<float> local(kSpan);
  std::vector<float> global(kSpan);
  std::vector<float> delta(kSpan);
  for (float& v : local) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : global) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<float> local0 = local;

  core::elastic_exchange_parallel(local, global, 0.25F, delta);  // warm pool
  const double elapsed = best_of(kSpanReps, [&] {
    std::copy(local0.begin(), local0.end(), local.begin());
    core::elastic_exchange_parallel(local, global, 0.25F, delta);
  });
  emit("seasgd_exchange", threads, elapsed, kSpanReps,
       static_cast<double>(kSpan), "gelems", 4.0 * kSpanBytes,
       checksum(delta.data(), delta.size()));
}

void bench_smb_accumulate(int threads) {
  common::parallel::set_thread_count(threads);
  smb::SmbServerOptions options;
  options.capacity_bytes = 256LL << 20;
  smb::SmbServer server(options);
  const smb::Handle src = server.create_floats(1, kSpan);
  const smb::Handle dst = server.create_floats(2, kSpan);
  common::Rng rng(13);
  std::vector<float> delta(kSpan);
  for (float& v : delta) v = static_cast<float>(rng.uniform(-0.01, 0.01));
  server.write(src, delta);

  server.accumulate(src, dst);  // warm pool + scratch
  const double elapsed = best_of(kSpanReps, [&] { server.accumulate(src, dst); });
  std::vector<float> out(kSpan);
  server.read(dst, out);
  emit("smb_accumulate", threads, elapsed, kSpanReps, static_cast<double>(kSpan),
       "gelems", 3.0 * kSpanBytes, checksum(out.data(), out.size()));
}

// The simd.h exchange core against an inline scalar loop over the same span,
// both single-threaded.  The core is itself a plain loop (its intrinsics
// measured no faster), so the pair shows what the compiler makes of each;
// the seasgd_exchange rows above measure it end-to-end through the pool.
void bench_exchange_core() {
  common::Rng rng(17);
  std::vector<float> local(kSpan);
  std::vector<float> global(kSpan);
  std::vector<float> delta(kSpan);
  for (float& v : local) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : global) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<float> local0 = local;
  constexpr float kAlpha = 0.25F;

  common::simd::elastic_exchange_core(kSpan, local.data(), global.data(), kAlpha,
                                      delta.data());
  const double simd_best = best_of(kSpanReps, [&] {
    std::copy(local0.begin(), local0.end(), local.begin());
    common::simd::elastic_exchange_core(kSpan, local.data(), global.data(), kAlpha,
                                        delta.data());
  });
  emit("exchange_core_simd", 1, simd_best, kSpanReps,
       static_cast<double>(kSpan), "gelems", 4.0 * kSpanBytes,
       checksum(delta.data(), delta.size()));

  std::vector<float> delta_ref(kSpan);
  std::copy(local0.begin(), local0.end(), local.begin());
  const double scalar_best = best_of(kSpanReps, [&] {
    std::copy(local0.begin(), local0.end(), local.begin());
    for (std::size_t j = 0; j < kSpan; ++j) {
      delta_ref[j] = kAlpha * (local[j] - global[j]);
      local[j] -= delta_ref[j];
    }
  });
  emit("exchange_core_scalar", 1, scalar_best, kSpanReps,
       static_cast<double>(kSpan), "gelems", 4.0 * kSpanBytes,
       checksum(delta_ref.data(), delta_ref.size()));

  // The SIMD tier's bitwise-identity contract against the scalar loop,
  // enforced where the numbers are produced (like the t1/t4 checksums).
  for (std::size_t j = 0; j < kSpan; ++j) {
    if (delta[j] != delta_ref[j]) {
      std::fprintf(stderr, "exchange core mismatch at %zu: simd=%.9g scalar=%.9g\n", j,
                   static_cast<double>(delta[j]), static_cast<double>(delta_ref[j]));
      std::exit(1);
    }
  }
}

// Copy read against the epoch-pinned zero-copy read of the same 4M-float
// segment.  The copy row streams the segment into a staging vector; the
// pinned row only pins/unpins the storage epoch — no bytes move, which is
// the entire point (its gb_per_s column reports delivered *view* bytes).
void bench_smb_read() {
  common::parallel::set_thread_count(1);
  smb::SmbServerOptions options;
  options.capacity_bytes = 256LL << 20;
  smb::SmbServer server(options);
  const smb::Handle handle = server.create_floats(1, kSpan);
  common::Rng rng(19);
  std::vector<float> data(kSpan);
  for (float& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  server.write(handle, data);

  std::vector<float> out(kSpan);
  server.read(handle, out);
  const double copy_best = best_of(kSpanReps, [&] { server.read(handle, out); });
  emit("smb_read_copy", 1, copy_best, kSpanReps, static_cast<double>(kSpan),
       "gelems", 2.0 * kSpanBytes, checksum(out.data(), out.size()));

  double pinned_check = 0.0;
  { auto warm = server.read_pinned(handle, kSpan); pinned_check = checksum(warm.data(), warm.size()); }
  // A pin is ~100ns, so the row needs far more reps per batch than the
  // streaming kernels for the batch time to dwarf timer jitter.
  constexpr int kPinnedReps = 4096;
  const double pinned_best = best_of(kPinnedReps, [&] {
    smb::PinnedFloats view = server.read_pinned(handle, kSpan);
    // Touch the ends so the pin cannot be optimised into nothing.
    if (view.data()[0] != data[0] || view.data()[kSpan - 1] != data[kSpan - 1]) std::exit(1);
  });
  emit("smb_read_pinned", 1, pinned_best, kPinnedReps, static_cast<double>(kSpan),
       "gelems", kSpanBytes, pinned_check);

  if (pinned_check != checksum(out.data(), out.size())) {
    std::fprintf(stderr, "pinned read checksum differs from copy read\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  for (const int threads : {1, 2, 4}) {
    bench_conv(kConvBlock, threads);
    bench_conv(kConvVgg, threads);
    bench_fc(threads);
    bench_seasgd(threads);
    bench_smb_accumulate(threads);
    bench_synth_fill(threads);
  }
  bench_conv_scalar_reference();
  bench_fc_scalar_reference();
  bench_synth_fill_scalar_reference();
  bench_exchange_core();
  bench_smb_read();
  common::parallel::shutdown();

  // The determinism contract, enforced where the numbers are produced: a
  // kernel's checksum must not depend on the pool width.  (The accumulate
  // rows intentionally differ — each run adds into the same destination —
  // so they are exempt.)
  for (const Row& a : rows) {
    for (const Row& b : rows) {
      if (std::string_view(a.name) != b.name || a.threads >= b.threads) continue;
      if (std::string_view(a.name) == "smb_accumulate") continue;
      if (a.check != b.check) {
        std::fprintf(stderr, "checksum mismatch for %s: t%d=%.17g t%d=%.17g\n", a.name,
                     a.threads, a.check, b.threads, b.check);
        return 1;
      }
    }
  }

  // Speedup of each tuned kernel over its in-bench reference, one ratio per
  // pair: folded into one mean, the pin-vs-copy ratio (a pin moves no bytes)
  // would hide the others.
  struct SpeedupPair {
    const char* key;
    const char* tuned;
    const char* ref;
  };
  const SpeedupPair pairs[] = {
      {"conv_fwd", "conv_fwd", "conv_fwd_scalar_ref"},
      {"conv_bwd", "conv_bwd", "conv_bwd_scalar_ref"},
      {"fc_fwd", "fc_fwd", "fc_fwd_scalar_ref"},
      {"synth_fill", "synth_fill", "synth_fill_scalar_ref"},
      {"exchange_core", "exchange_core_simd", "exchange_core_scalar"},
      {"smb_read", "smb_read_pinned", "smb_read_copy"},
  };

  // A tuned kernel keeps its reference's float order: same checksum.
  for (const SpeedupPair& pair : pairs) {
    const Row* tuned = row_of(pair.tuned, 1);
    const Row* ref = row_of(pair.ref, 1);
    if (tuned == nullptr || ref == nullptr || tuned->check != ref->check) {
      std::fprintf(stderr, "checksum mismatch between %s and %s\n", pair.tuned, pair.ref);
      return 1;
    }
  }

  std::printf("{\n  \"schema\": \"bench_micro_kernels/v6\",\n");
  // The machine the rows were measured on: tools/check.sh fences only
  // against a baseline whose host line matches this one exactly.
  std::printf("  \"host\": {\"nproc\": %ld, \"simd\": \"%s\"},\n",
              sysconf(_SC_NPROCESSORS_ONLN), common::simd::dispatch_name());
  for (const ConvShape& shape : {kConvBlock, kConvVgg}) {
    std::printf("  \"%s\": {\"batch\": %d, \"in_c\": %d, \"out_c\": %d, \"side\": %d},\n",
                shape.key, shape.batch, shape.in_c,
                shape.out_c, shape.side);
  }
  std::printf("  \"fc\": {\"batch\": %d, \"in\": %d, \"out\": %d},\n", kFcBatch, kFcIn,
              kFcOut);
  std::printf("  \"synth_fill\": {\"batch\": %d, \"channels\": 1, \"side\": %d, "
              "\"noise\": 1.0},\n",
              kFillBatch, kFillSide);
  std::printf("  \"span_elements\": %zu,\n", kSpan);
  std::printf("  \"speedup_vs_ref\": {");
  for (std::size_t i = 0; i < std::size(pairs); ++i) {
    const double ref = row_of(pairs[i].ref, 1)->throughput;
    std::printf("%s\"%s\": %.4f", i == 0 ? "" : ", ", pairs[i].key,
                ref > 0 ? row_of(pairs[i].tuned, 1)->throughput / ref : 0.0);
  }
  std::printf("},\n");
  std::printf("  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"name\": \"%s_t%d\", \"threads\": %d, \"ms_per_iter\": %.4f, "
                "\"throughput\": %.4f, \"units\": \"%s\", \"gb_per_s\": %.4f, "
                "\"checksum\": %.9g}%s\n",
                r.name, r.threads, r.threads, r.ms, r.throughput, r.units, r.gb_per_s,
                r.check, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
