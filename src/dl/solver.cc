#include "dl/solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace shmcaffe::dl {

SgdSolver::SgdSolver(Net& net, SolverOptions options) : net_(&net), options_(options) {
  if (options_.base_lr <= 0.0) throw std::invalid_argument("base_lr must be positive");
  if (options_.momentum < 0.0 || options_.momentum >= 1.0) {
    throw std::invalid_argument("momentum must be in [0,1)");
  }
  for (ParamBlob* blob : net_->params()) {
    Tensor v;
    v.reshape(blob->value.shape());
    momentum_.push_back(std::move(v));
  }
}

double SgdSolver::learning_rate(int iteration) const {
  const SolverOptions& o = options_;
  switch (o.lr_policy) {
    case LrPolicy::kFixed:
      return o.base_lr;
    case LrPolicy::kStep:
      return o.base_lr * std::pow(o.gamma, iteration / o.step_size);
  }
  return o.base_lr;
}

void SgdSolver::apply_update(double lr) {
  const auto params = net_->params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    ParamBlob& blob = *params[p];
    if (!blob.learnable) continue;  // state blobs (BN running stats)
    Tensor& vel = momentum_[p];
    const auto mu = static_cast<float>(options_.momentum);
    const auto rate = static_cast<float>(lr);
    const auto decay = static_cast<float>(options_.weight_decay);
    float* w = blob.value.data();
    const float* g = blob.grad.data();
    float* v = vel.data();
    const std::size_t count = blob.value.size();
    for (std::size_t i = 0; i < count; ++i) {
      v[i] = mu * v[i] + rate * (g[i] + decay * w[i]);
      w[i] -= v[i];
    }
  }
}

void SgdSolver::step() {
  apply_update(learning_rate(iteration_));
  net_->zero_param_grads();
  ++iteration_;
}

std::vector<float> SgdSolver::momentum_state() const {
  std::vector<float> state;
  for (const Tensor& vel : momentum_) {
    state.insert(state.end(), vel.data(), vel.data() + vel.size());
  }
  return state;
}

void SgdSolver::set_momentum_state(const std::vector<float>& state) {
  std::size_t total = 0;
  for (const Tensor& vel : momentum_) total += vel.size();
  if (state.size() != total) {
    throw std::invalid_argument("momentum state size mismatch");
  }
  std::size_t offset = 0;
  for (Tensor& vel : momentum_) {
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(offset),
              state.begin() + static_cast<std::ptrdiff_t>(offset + vel.size()), vel.data());
    offset += vel.size();
  }
}

}  // namespace shmcaffe::dl
