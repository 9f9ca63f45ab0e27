#include "nn/residual.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::nn {

ResidualBlock::ResidualBlock(std::size_t features, util::Rng& rng,
                             const std::string& name)
    : fc1_(features, features, rng, Init::kHe, name + ".fc1"),
      act_(ActKind::kRelu),
      fc2_(features, features, rng, Init::kHe, name + ".fc2") {}

void ResidualBlock::forward_into(const Matrix& input, Matrix& out) {
  fc1_.forward_into(input, hidden_ws_);
  act_.forward_into(hidden_ws_, hidden_ws_);  // elementwise: in-place is fine
  fc2_.forward_into(hidden_ws_, out);
  add_inplace(out, input);  // skip connection
}

void ResidualBlock::forward_inference_into(const Matrix& input,
                                           Matrix& out) const {
  Matrix hidden;
  fc1_.forward_inference_into(input, hidden);
  act_.forward_inference_into(hidden, hidden);
  fc2_.forward_inference_into(hidden, out);
  add_inplace(out, input);
}

void ResidualBlock::backward_into(const Matrix& grad_output,
                                  Matrix& grad_input) {
  fc2_.backward_into(grad_output, hidden_ws_);
  act_.backward_into(hidden_ws_, hidden_ws_);
  fc1_.backward_into(hidden_ws_, grad_input);
  add_inplace(grad_input, grad_output);  // gradient through the skip
}

std::vector<Param*> ResidualBlock::parameters() {
  std::vector<Param*> params = fc1_.parameters();
  const auto p2 = fc2_.parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  return params;
}

}  // namespace passflow::nn
