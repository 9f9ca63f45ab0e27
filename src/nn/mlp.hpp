// Sequential MLP container plus the two-headed ResNet used by couplings.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/residual.hpp"

namespace passflow::nn {

// Plain feed-forward stack: Linear -> act -> ... -> Linear. Used by the
// CWAE encoder/decoder and the GAN generator/discriminator.
class Mlp : public Module {
 public:
  // hidden_sizes may be empty (single Linear). `final_act` of kTanh/kSigmoid
  // appends an output activation; pass std::nullopt-like kNone via
  // `has_final_act=false`.
  Mlp(std::size_t in_features, const std::vector<std::size_t>& hidden_sizes,
      std::size_t out_features, util::Rng& rng,
      ActKind hidden_act = ActKind::kRelu, bool has_final_act = false,
      ActKind final_act = ActKind::kTanh, const std::string& name = "mlp");

  // Activations ping-pong between two buffers: members on the training
  // paths (allocation-free once warm), call-locals on the inference path.
  // out/grad_input must not alias the input.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  void forward_inference_into(const Matrix& input, Matrix& out) const override;
  std::vector<Param*> parameters() override;

 private:
  std::vector<std::unique_ptr<Module>> layers_;
  Matrix ping_ws_;  // training-only inter-layer scratch
  Matrix pong_ws_;
};

// Shared-trunk network producing the coupling layer's scale and translation:
//
//   trunk: Linear(in -> hidden) -> ReLU -> ResBlock^depth
//   s head: Linear(hidden -> out), zero-init
//   t head: Linear(hidden -> out), zero-init
//
// Zero-initialized heads make every coupling start as the identity map, the
// standard RealNVP/Glow trick that stabilizes deep flows at the start of
// training.
class ResNetST {
 public:
  ResNetST(std::size_t in_features, std::size_t hidden, std::size_t depth,
           std::size_t out_features, util::Rng& rng,
           const std::string& name = "st");

  // The Module contract with two outputs: s_raw (pre-tanh scale logits)
  // and t (translation), which must not alias the input or each other.
  // Training forward; allocation-free once warm (trunk activations live in
  // member workspaces).
  void forward_into(const Matrix& input, Matrix& s_raw, Matrix& t);
  // Backward for the two heads; writes dL/d(input).
  void backward_into(const Matrix& grad_s_raw, const Matrix& grad_t,
                     Matrix& grad_input);
  // Inference forward; const, with call-local trunk activations.
  void forward_inference_into(const Matrix& input, Matrix& s_raw,
                              Matrix& t) const;

  std::vector<Param*> parameters();

 private:
  Linear in_proj_;
  Activation in_act_;
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  Linear s_head_;
  Linear t_head_;
  Matrix trunk_ws_;  // training-only trunk activation ping-pong
  Matrix trunk_ws2_;
};

}  // namespace passflow::nn
