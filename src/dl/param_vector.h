// Flat copies of a net's parameters and gradients.
//
// A Net keeps every parameter value in one contiguous store and every
// gradient in another (dl/net.h), in the layout of the SMB weight segments,
// so the ShmCaffe trainer works on Net::param_values() and
// Net::param_grads() in place.  These helpers are for callers that keep a
// flat buffer of their own (the baselines, the benchmark's replay): each is
// one copy over a store.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dl/net.h"

namespace shmcaffe::dl {

namespace detail {
/// Copies `src` into `dst`, which must be as long; `what` names the caller.
inline void copy_exact(std::span<const float> src, std::span<float> dst, const char* what) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
  std::copy(src.begin(), src.end(), dst.begin());
}
}  // namespace detail

/// Copies every parameter value into `dst` (dst.size() == net.param_count()).
inline void copy_params_to(Net& net, std::span<float> dst) {
  detail::copy_exact(net.param_values(), dst, "copy_params_to");
}

/// Overwrites every parameter value from `src`.
inline void copy_params_from(Net& net, std::span<const float> src) {
  detail::copy_exact(src, net.param_values(), "copy_params_from");
}

/// Copies every parameter gradient into `dst`.
inline void copy_grads_to(Net& net, std::span<float> dst) {
  detail::copy_exact(net.param_grads(), dst, "copy_grads_to");
}

/// Overwrites every parameter gradient from `src`.
inline void copy_grads_from(Net& net, std::span<const float> src) {
  detail::copy_exact(src, net.param_grads(), "copy_grads_from");
}

/// Snapshot of all parameters as a fresh vector.
inline std::vector<float> params_snapshot(Net& net) {
  const std::span<const float> values = net.param_values();
  return {values.begin(), values.end()};
}

}  // namespace shmcaffe::dl
