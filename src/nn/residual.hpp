// Residual block: y = x + W2 * relu(W1 * x + b1) + b2.
//
// This is the building block of the s/t networks in PassFlow's coupling
// layers (§IV-D: "2 residual blocks with a hidden size of 256").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/linear.hpp"

namespace passflow::nn {

class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t features, util::Rng& rng,
                const std::string& name = "resblock");

  // Allocation-free training paths (member workspaces); out/grad_input
  // must not alias the input. Inference keeps its hidden activation local.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  void forward_inference_into(const Matrix& input, Matrix& out) const override;
  std::vector<Param*> parameters() override;

 private:
  Linear fc1_;
  Activation act_;
  Linear fc2_;
  Matrix hidden_ws_;  // training-only scratch for the fc1/act output
};

}  // namespace passflow::nn
