// Fully connected layer: y = x W + b, with He/Xavier initialization.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace passflow::nn {

enum class Init {
  kHe,      // N(0, sqrt(2/fan_in)) — for ReLU trunks
  kXavier,  // N(0, sqrt(2/(fan_in+fan_out))) — for tanh/linear heads
  kZero,    // all zeros — for output heads that should start as identity
};

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         util::Rng& rng, Init init = Init::kHe,
         const std::string& name = "linear");

  // Allocation-free once warm; out must not alias input.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  void forward_inference_into(const Matrix& input, Matrix& out) const override;
  std::vector<Param*> parameters() override;

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  Param weight_;  // (in x out)
  Param bias_;    // (1 x out)
  Matrix cached_input_;
  // Training-only workspaces (dW, db); never touched on inference paths.
  Matrix dw_ws_;
  Matrix db_ws_;
};

}  // namespace passflow::nn
