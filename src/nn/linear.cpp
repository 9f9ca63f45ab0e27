#include "nn/linear.hpp"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::nn {

namespace {
Matrix init_weight(std::size_t in, std::size_t out, util::Rng& rng,
                   Init init) {
  Matrix w(in, out);
  double stddev = 0.0;
  switch (init) {
    case Init::kHe:
      stddev = std::sqrt(2.0 / static_cast<double>(in));
      break;
    case Init::kXavier:
      stddev = std::sqrt(2.0 / static_cast<double>(in + out));
      break;
    case Init::kZero:
      return w;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return w;
}
}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng, Init init, const std::string& name)
    : weight_(name + ".weight", init_weight(in_features, out_features, rng, init)),
      bias_(name + ".bias", Matrix(1, out_features)) {}

void Linear::forward_inference_into(const Matrix& input, Matrix& out) const {
  matmul(input, weight_.value, out);
  add_row_vector(out, bias_.value);
}

void Linear::forward_into(const Matrix& input, Matrix& out) {
  cached_input_ = input;  // capacity-reusing copy once shapes are stable
  forward_inference_into(input, out);
}

void Linear::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  // dW += x^T g ; db += column_sum(g) ; dx = g W^T
  matmul_tn(cached_input_, grad_output, dw_ws_);
  add_inplace(weight_.grad, dw_ws_);

  column_sum(grad_output, db_ws_);
  add_inplace(bias_.grad, db_ws_);

  matmul_nt(grad_output, weight_.value, grad_input);
}

std::vector<Param*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace passflow::nn
