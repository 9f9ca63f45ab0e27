// Affine coupling layer (Dinh et al. Real NVP, as adapted by PassFlow §III-A).
//
// With mask b (1 = identity part):
//
//   forward:  z = b.x + (1-b).(x . exp(s(b.x)) + t(b.x))        (Eq. 13)
//   inverse:  x = b.z + (1-b).((z - t(b.z)) . exp(-s(b.z)))
//   log|det J| = sum_j ((1-b) . s)_j                            (Eq. 12)
//
// s and t are the two heads of one ResNet (§IV-D: 2 residual blocks, hidden
// 256). The raw s head passes through scale * tanh(.) with a learned
// per-dimension scale — the standard Real NVP stabilization; since the heads
// are zero-initialized, every coupling starts exactly at the identity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "flow/mask.hpp"
#include "nn/mlp.hpp"

namespace passflow::flow {

class AffineCoupling {
 public:
  AffineCoupling(std::size_t dim, std::size_t hidden, std::size_t depth,
                 std::vector<float> mask, util::Rng& rng,
                 const std::string& name = "coupling");

  std::size_t dim() const { return mask_.size(); }
  const std::vector<float>& mask() const { return mask_; }

  // Training forward x -> z (z must not alias x). Adds each sample's
  // log-det contribution into `log_det` (size = batch rows). Caches what
  // backward_into needs; allocation-free once warm via member workspaces,
  // so only safe from one trainer thread.
  void forward_into(const nn::Matrix& x, std::vector<double>& log_det,
                    nn::Matrix& z);

  // Backward for loss terms L(z, log_det): takes dL/dz and dL/d(log_det) per
  // sample, accumulates parameter gradients, writes dL/dx.
  void backward_into(const nn::Matrix& grad_z,
                     const std::vector<double>& grad_log_det,
                     nn::Matrix& grad_x);

  // Inference forward x -> z; adds the log-det into `log_det` when it is
  // non-null. Const and cache-free like the inverse below, so concurrent
  // calls on one coupling are safe as long as each caller owns its outputs.
  void forward_inference_into(const nn::Matrix& x,
                              std::vector<double>* log_det,
                              nn::Matrix& z) const;

  // Exact inverse z -> x (inference only; flows never backprop the
  // inverse). x must not alias z.
  void inverse_into(const nn::Matrix& z, nn::Matrix& x) const;

  std::vector<nn::Param*> parameters();

 private:
  // Inference s = s_scale * tanh(s_raw) and t for the conditioning input
  // b.x, with call-local scratch.
  void scale_and_shift(const nn::Matrix& x, nn::Matrix& s,
                       nn::Matrix& t) const;

  std::vector<float> mask_;  // b
  nn::ResNetST net_;
  nn::Param s_scale_;  // learned per-dim bound on the scale (1 x dim)

  // Training-forward caches.
  nn::Matrix cached_x_;
  nn::Matrix cached_s_;
  nn::Matrix cached_s_raw_;

  // Training-only workspaces.
  nn::Matrix masked_ws_;
  nn::Matrix t_ws_;
  nn::Matrix grad_s_ws_;
  nn::Matrix grad_t_ws_;
  nn::Matrix grad_s_raw_ws_;
  nn::Matrix grad_h_ws_;
};

}  // namespace passflow::flow
