// SGD solver with momentum, weight decay and Caffe's `fixed` and `step`
// learning-rate policies.
//
// Update rule (Caffe convention):
//   v <- momentum * v + lr * (grad + weight_decay * w)
//   w <- w - v
//
// The paper trains with base_lr 0.1, momentum 0.9, the `step` policy with
// gamma 0.1 and a step size of 4 epochs (§IV-C).
#pragma once

#include <string>
#include <vector>

#include "dl/net.h"

namespace shmcaffe::dl {

enum class LrPolicy { kFixed, kStep };

struct SolverOptions {
  double base_lr = 0.1;
  LrPolicy lr_policy = LrPolicy::kFixed;
  double gamma = 0.1;               ///< kStep decay factor
  int step_size = 100000;           ///< iterations per step (kStep)
  double momentum = 0.9;
  double weight_decay = 0.0;
};

class SgdSolver {
 public:
  SgdSolver(Net& net, SolverOptions options);

  /// Learning rate the policy yields at `iteration`.
  [[nodiscard]] double learning_rate(int iteration) const;

  /// Applies one update from the currently-accumulated gradients, zeroes
  /// them, and advances the iteration counter.
  void step();

  /// Applies an update at an explicit learning rate without advancing the
  /// counter (used by distributed trainers that control scheduling).
  void apply_update(double lr);

  [[nodiscard]] int iteration() const { return iteration_; }
  void set_iteration(int iteration) { iteration_ = iteration; }
  [[nodiscard]] const SolverOptions& options() const { return options_; }

  /// Momentum buffers flattened into one vector (param order), and the
  /// inverse — used by checkpoint save/restore so a resumed run continues
  /// with the exact velocity state of the interrupted one.
  [[nodiscard]] std::vector<float> momentum_state() const;
  void set_momentum_state(const std::vector<float>& state);

 private:
  Net* net_;
  SolverOptions options_;
  int iteration_ = 0;
  std::vector<Tensor> momentum_;  // one per ParamBlob, same order as net params
};

}  // namespace shmcaffe::dl
