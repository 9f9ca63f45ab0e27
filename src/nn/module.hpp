// Module interface for the manual-backprop layer stack.
//
// Every layer has exactly three paths, each with one virtual entry point:
//
//   forward_into            training forward; caches in members whatever
//                           backward needs (one cached set per instance).
//   backward_into           receives dL/d(output), accumulates dL/d(param)
//                           into each Param::grad and writes dL/d(input).
//                           Must follow a matching forward_into().
//   forward_inference_into  inference forward. It is `const` and touches no
//                           member state: any scratch is local to the call,
//                           so concurrent calls on one instance are safe as
//                           long as each caller owns its `out`.
//
// The training pair reuses member workspaces and is not thread-safe; a
// module must not be shared across concurrent forward/backward pairs. The
// training forward and the inference forward run the same arithmetic in the
// same order, so their outputs are bitwise equal.
//
// Outputs are written into the caller's matrix, reusing its storage when
// the shape already matches (Matrix::resize), so a warm training loop does
// not allocate. `out`/`grad_input` must not alias the input unless the
// layer is purely elementwise (Activation documents aliasing support).
// forward(), backward() and forward_inference() are allocating
// conveniences over the three entry points.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"

namespace passflow::nn {

// A learnable tensor with its accumulated gradient.
struct Param {
  std::string name;
  Matrix value;
  Matrix grad;

  Param() = default;
  Param(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}
};

class Module {
 public:
  virtual ~Module() = default;

  virtual void forward_into(const Matrix& input, Matrix& out) = 0;
  virtual void backward_into(const Matrix& grad_output,
                             Matrix& grad_input) = 0;
  virtual void forward_inference_into(const Matrix& input,
                                      Matrix& out) const = 0;

  // Flat list of learnable parameters (owned by the module).
  virtual std::vector<Param*> parameters() = 0;

  Matrix forward(const Matrix& input) {
    Matrix out;
    forward_into(input, out);
    return out;
  }
  Matrix backward(const Matrix& grad_output) {
    Matrix grad_input;
    backward_into(grad_output, grad_input);
    return grad_input;
  }
  Matrix forward_inference(const Matrix& input) const {
    Matrix out;
    forward_inference_into(input, out);
    return out;
  }

  void zero_grad() {
    for (Param* p : parameters()) p->grad.zero();
  }

  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Param* p : parameters()) n += p->value.size();
    return n;
  }
};

}  // namespace passflow::nn
