#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace passflow::nn {

float activate(ActKind kind, float x, float leak) {
  switch (kind) {
    case ActKind::kRelu:
      return x > 0.0f ? x : 0.0f;
    case ActKind::kLeakyRelu:
      return x > 0.0f ? x : leak * x;
    case ActKind::kTanh:
      return std::tanh(x);
    case ActKind::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
  }
  return x;
}

float activate_grad(ActKind kind, float x, float leak) {
  switch (kind) {
    case ActKind::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case ActKind::kLeakyRelu:
      return x > 0.0f ? 1.0f : leak;
    case ActKind::kTanh: {
      const float t = std::tanh(x);
      return 1.0f - t * t;
    }
    case ActKind::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f - s);
    }
  }
  return 1.0f;
}

// Hoists the kind switch out of the elementwise loop so each branch is a
// tight `#pragma omp simd` loop (ReLU variants vectorize fully; tanh and
// sigmoid keep their libm calls but lose the per-element dispatch).
void Activation::forward_inference_into(const Matrix& input,
                                        Matrix& out) const {
  if (&out != &input) {
    out.resize(input.rows(), input.cols());
    std::copy(input.data(), input.data() + input.size(), out.data());
  }
  float* d = out.data();
  const std::size_t size = out.size();
  switch (kind_) {
    case ActKind::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < size; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
      break;
    case ActKind::kLeakyRelu: {
      const float leak = leak_;
#pragma omp simd
      for (std::size_t i = 0; i < size; ++i) {
        d[i] = d[i] > 0.0f ? d[i] : leak * d[i];
      }
      break;
    }
    case ActKind::kTanh:
      for (std::size_t i = 0; i < size; ++i) d[i] = std::tanh(d[i]);
      break;
    case ActKind::kSigmoid:
      for (std::size_t i = 0; i < size; ++i) {
        d[i] = 1.0f / (1.0f + std::exp(-d[i]));
      }
      break;
  }
}

void Activation::forward_into(const Matrix& input, Matrix& out) {
  cached_input_ = input;  // copy before apply so aliased in-place calls work
  forward_inference_into(input, out);
}

void Activation::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  if (&grad_input != &grad_output) {
    grad_input.resize(grad_output.rows(), grad_output.cols());
    std::copy(grad_output.data(), grad_output.data() + grad_output.size(),
              grad_input.data());
  }
  float* d = grad_input.data();
  const float* x = cached_input_.data();
  const std::size_t size = grad_input.size();
  switch (kind_) {
    case ActKind::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < size; ++i) {
        d[i] = x[i] > 0.0f ? d[i] : 0.0f;
      }
      break;
    case ActKind::kLeakyRelu: {
      const float leak = leak_;
#pragma omp simd
      for (std::size_t i = 0; i < size; ++i) {
        d[i] = x[i] > 0.0f ? d[i] : leak * d[i];
      }
      break;
    }
    case ActKind::kTanh:
      for (std::size_t i = 0; i < size; ++i) {
        const float t = std::tanh(x[i]);
        d[i] *= 1.0f - t * t;
      }
      break;
    case ActKind::kSigmoid:
      for (std::size_t i = 0; i < size; ++i) {
        const float s = 1.0f / (1.0f + std::exp(-x[i]));
        d[i] *= s * (1.0f - s);
      }
      break;
  }
}

}  // namespace passflow::nn
