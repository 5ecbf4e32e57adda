#include "dl/layers_norm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace shmcaffe::dl {
namespace {

void check(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

}  // namespace

// --- BatchNorm ---------------------------------------------------------------

BatchNorm::BatchNorm(std::string name, int channels, double momentum, double epsilon)
    : Layer(std::move(name)), channels_(channels), momentum_(momentum), epsilon_(epsilon) {
  check(channels > 0, "BatchNorm: channels must be positive");
  check(momentum >= 0.0 && momentum < 1.0, "BatchNorm: momentum in [0,1)");
  check(epsilon > 0.0, "BatchNorm: epsilon must be positive");
  scale_.name = Layer::name() + ".scale";
  scale_.shape = {channels_};
  shift_.name = Layer::name() + ".shift";
  shift_.shape = {channels_};
  running_mean_.name = Layer::name() + ".running_mean";
  running_mean_.shape = {channels_};
  running_mean_.learnable = false;
  running_var_.name = Layer::name() + ".running_var";
  running_var_.shape = {channels_};
  running_var_.learnable = false;
}

void BatchNorm::init_params(common::Rng& /*rng*/) {
  allocate_params();
  scale_.value.fill(1.0F);
  shift_.value.zero();
  running_mean_.value.zero();
  running_var_.value.fill(1.0F);
}

void BatchNorm::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  allocate_params();
  check(bottoms.size() == 1, "BatchNorm: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() == 4, "BatchNorm: bottom must be NCHW");
  check(x.c() == channels_, "BatchNorm: channel mismatch");
  top.reshape(x.shape());
}

void BatchNorm::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool train) {
  const Tensor& x = *bottoms[0];
  const int n = x.n();
  const int h = x.h();
  const int w = x.w();
  const auto per_channel = static_cast<double>(n) * h * w;
  normalized_.reshape(x.shape());
  batch_mean_.assign(static_cast<std::size_t>(channels_), 0.0F);
  batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0F);

  for (int c = 0; c < channels_; ++c) {
    double mean = 0.0;
    double variance = 0.0;
    if (train) {
      for (int in = 0; in < n; ++in) {
        for (int y = 0; y < h; ++y) {
          for (int xw = 0; xw < w; ++xw) mean += x.at(in, c, y, xw);
        }
      }
      mean /= per_channel;
      for (int in = 0; in < n; ++in) {
        for (int y = 0; y < h; ++y) {
          for (int xw = 0; xw < w; ++xw) {
            const double d = x.at(in, c, y, xw) - mean;
            variance += d * d;
          }
        }
      }
      variance /= per_channel;  // biased, like cuDNN/Caffe forward
      auto& rm = running_mean_.value[static_cast<std::size_t>(c)];
      auto& rv = running_var_.value[static_cast<std::size_t>(c)];
      rm = static_cast<float>(momentum_ * rm + (1.0 - momentum_) * mean);
      rv = static_cast<float>(momentum_ * rv + (1.0 - momentum_) * variance);
    } else {
      mean = running_mean_.value[static_cast<std::size_t>(c)];
      variance = running_var_.value[static_cast<std::size_t>(c)];
    }
    const double inv_std = 1.0 / std::sqrt(variance + epsilon_);
    batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    batch_inv_std_[static_cast<std::size_t>(c)] = static_cast<float>(inv_std);
    const float gamma = scale_.value[static_cast<std::size_t>(c)];
    const float beta = shift_.value[static_cast<std::size_t>(c)];
    for (int in = 0; in < n; ++in) {
      for (int y = 0; y < h; ++y) {
        for (int xw = 0; xw < w; ++xw) {
          const float xhat = static_cast<float>((x.at(in, c, y, xw) - mean) * inv_std);
          normalized_.at(in, c, y, xw) = xhat;
          top.at(in, c, y, xw) = gamma * xhat + beta;
        }
      }
    }
  }
}

void BatchNorm::backward(const std::vector<const Tensor*>& bottoms, const Tensor& /*top*/,
                         const Tensor& top_grad,
                         const std::vector<Tensor*>& bottom_grads) {
  const Tensor& x = *bottoms[0];
  Tensor* dx = bottom_grads[0];
  const int n = x.n();
  const int h = x.h();
  const int w = x.w();
  const auto per_channel = static_cast<double>(n) * h * w;

  for (int c = 0; c < channels_; ++c) {
    // Reductions: sum(dy), sum(dy * xhat).
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (int in = 0; in < n; ++in) {
      for (int y = 0; y < h; ++y) {
        for (int xw = 0; xw < w; ++xw) {
          const double dy = top_grad.at(in, c, y, xw);
          sum_dy += dy;
          sum_dy_xhat += dy * normalized_.at(in, c, y, xw);
        }
      }
    }
    shift_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy);
    scale_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy_xhat);
    if (dx == nullptr) continue;
    const double gamma = scale_.value[static_cast<std::size_t>(c)];
    const double inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    const double mean_dy = sum_dy / per_channel;
    const double mean_dy_xhat = sum_dy_xhat / per_channel;
    for (int in = 0; in < n; ++in) {
      for (int y = 0; y < h; ++y) {
        for (int xw = 0; xw < w; ++xw) {
          const double dy = top_grad.at(in, c, y, xw);
          const double xhat = normalized_.at(in, c, y, xw);
          dx->at(in, c, y, xw) += static_cast<float>(
              gamma * inv_std * (dy - mean_dy - xhat * mean_dy_xhat));
        }
      }
    }
  }
}

// --- Lrn --------------------------------------------------------------------

Lrn::Lrn(std::string name, int local_size, double alpha, double beta, double k)
    : Layer(std::move(name)), local_size_(local_size), alpha_(alpha), beta_(beta), k_(k) {
  check(local_size >= 1 && local_size % 2 == 1, "Lrn: local_size must be odd and >= 1");
  check(alpha > 0.0 && beta > 0.0 && k > 0.0, "Lrn: alpha, beta, k must be positive");
}

void Lrn::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "Lrn: expects one bottom");
  check(bottoms[0]->rank() == 4, "Lrn: bottom must be NCHW");
  top.reshape(bottoms[0]->shape());
}

void Lrn::forward(const std::vector<const Tensor*>& bottoms, Tensor& top, bool /*train*/) {
  const Tensor& x = *bottoms[0];
  denom_.reshape(x.shape());
  const int half = local_size_ / 2;
  const double scale = alpha_ / local_size_;
  for (int n = 0; n < x.n(); ++n) {
    for (int y = 0; y < x.h(); ++y) {
      for (int xw = 0; xw < x.w(); ++xw) {
        for (int c = 0; c < x.c(); ++c) {
          double acc = 0.0;
          const int lo = std::max(0, c - half);
          const int hi = std::min(x.c() - 1, c + half);
          for (int j = lo; j <= hi; ++j) {
            const double v = x.at(n, j, y, xw);
            acc += v * v;
          }
          const double denom = k_ + scale * acc;
          denom_.at(n, c, y, xw) = static_cast<float>(denom);
          top.at(n, c, y, xw) =
              static_cast<float>(x.at(n, c, y, xw) * std::pow(denom, -beta_));
        }
      }
    }
  }
}

void Lrn::backward(const std::vector<const Tensor*>& bottoms, const Tensor& top,
                   const Tensor& top_grad, const std::vector<Tensor*>& bottom_grads) {
  const Tensor& x = *bottoms[0];
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  const int half = local_size_ / 2;
  const double scale = alpha_ / local_size_;
  // dx_i = dy_i * denom_i^-beta
  //        - 2*beta*scale * x_i * sum_{j : i in window(j)} dy_j * y_j / denom_j
  for (int n = 0; n < x.n(); ++n) {
    for (int y = 0; y < x.h(); ++y) {
      for (int xw = 0; xw < x.w(); ++xw) {
        for (int c = 0; c < x.c(); ++c) {
          const double direct =
              top_grad.at(n, c, y, xw) * std::pow(denom_.at(n, c, y, xw), -beta_);
          double cross = 0.0;
          const int lo = std::max(0, c - half);
          const int hi = std::min(x.c() - 1, c + half);
          for (int j = lo; j <= hi; ++j) {
            cross += top_grad.at(n, j, y, xw) * top.at(n, j, y, xw) /
                     denom_.at(n, j, y, xw);
          }
          dx->at(n, c, y, xw) += static_cast<float>(
              direct - 2.0 * beta_ * scale * x.at(n, c, y, xw) * cross);
        }
      }
    }
  }
}

// --- AvgPool2d ----------------------------------------------------------------

AvgPool2d::AvgPool2d(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  check(kernel > 0 && stride > 0, "AvgPool2d: invalid geometry");
}

void AvgPool2d::setup(const std::vector<const Tensor*>& bottoms, Tensor& top) {
  check(bottoms.size() == 1, "AvgPool2d: expects one bottom");
  const Tensor& x = *bottoms[0];
  check(x.rank() == 4, "AvgPool2d: bottom must be NCHW");
  const int oh = (x.h() - kernel_) / stride_ + 1;
  const int ow = (x.w() - kernel_) / stride_ + 1;
  check(oh > 0 && ow > 0, "AvgPool2d: output would be empty");
  top.reshape({x.n(), x.c(), oh, ow});
}

void AvgPool2d::forward(const std::vector<const Tensor*>& bottoms, Tensor& top,
                        bool /*train*/) {
  const Tensor& x = *bottoms[0];
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      for (int y = 0; y < top.h(); ++y) {
        for (int xw = 0; xw < top.w(); ++xw) {
          float acc = 0.0F;
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              acc += x.at(n, c, y * stride_ + ky, xw * stride_ + kx);
            }
          }
          top.at(n, c, y, xw) = acc * inv;
        }
      }
    }
  }
}

void AvgPool2d::backward(const std::vector<const Tensor*>& /*bottoms*/, const Tensor& top,
                         const Tensor& top_grad,
                         const std::vector<Tensor*>& bottom_grads) {
  Tensor* dx = bottom_grads[0];
  if (dx == nullptr) return;
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  for (int n = 0; n < top.n(); ++n) {
    for (int c = 0; c < top.c(); ++c) {
      for (int y = 0; y < top.h(); ++y) {
        for (int xw = 0; xw < top.w(); ++xw) {
          const float g = top_grad.at(n, c, y, xw) * inv;
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              dx->at(n, c, y * stride_ + ky, xw * stride_ + kx) += g;
            }
          }
        }
      }
    }
  }
}

}  // namespace shmcaffe::dl
