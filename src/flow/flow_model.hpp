// The PassFlow model: a composition of affine coupling layers with exact
// log-likelihood (Eq. 1-8) under a factorized standard-normal prior.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "flow/coupling.hpp"
#include "nn/adam.hpp"

namespace passflow::util {
class ThreadPool;
}

namespace passflow::flow {

struct FlowConfig {
  std::size_t dim = 10;            // password max length (§IV-D)
  std::size_t num_couplings = 18;  // paper architecture (§IV-D)
  std::size_t hidden = 256;        // s/t hidden width (§IV-D)
  std::size_t residual_blocks = 2; // s/t depth (§IV-D)
  MaskConfig mask;                 // char-run m=1 by default (§IV-D)
};

class FlowModel {
 public:
  FlowModel(FlowConfig config, util::Rng& rng);

  const FlowConfig& config() const { return config_; }
  std::size_t dim() const { return config_.dim; }

  // Inference forward x -> z, filling per-sample log|det J| when log_det
  // is non-null (overwritten). Const and cache-free: every coupling keeps
  // its scratch local to the call, so concurrent calls on one model are
  // safe.
  //
  // With a pool of two or more workers and a large enough batch, the rows
  // are split into contiguous chunks, one per worker, and each chunk runs
  // the serial path. The map is row-independent, so the result is bitwise
  // identical to the serial one. The same holds for inverse() and nll().
  nn::Matrix forward_inference(const nn::Matrix& x,
                               std::vector<double>* log_det = nullptr,
                               util::ThreadPool* pool = nullptr) const;
  // Exact inverse z -> x.
  nn::Matrix inverse(const nn::Matrix& z,
                     util::ThreadPool* pool = nullptr) const;

  // Per-sample exact log p(x) (Eq. 5 with a standard-normal prior), built
  // on forward_inference. Every row's value is bitwise identical whether
  // scored alone, inside any batch, or with any pool size — the guarantee
  // the serving layer's micro-batching relies on.
  std::vector<double> log_prob_batch(const nn::Matrix& x,
                                     util::ThreadPool* pool = nullptr) const;

  // Mean NLL of the batch (Eq. 7-8) without gradients (validation).
  double nll(const nn::Matrix& x, util::ThreadPool* pool = nullptr) const;

  // Computes the mean NLL of the batch, accumulates parameter gradients,
  // and returns the loss. Callers zero_grad + optimizer-step.
  //
  // With a pool of two or more workers and a large enough batch, the batch
  // is split into one contiguous shard per worker. Each shard runs
  // forward+backward on a persistent per-worker model replica (its own
  // caches, its own gradient buffers), and the shard gradients are combined
  // with a fixed-shape pairwise tree reduction weighted by shard size.
  // Shard boundaries, tree shape and summation order depend only on (batch
  // size, pool size), so gradients are bitwise reproducible across runs at
  // a fixed pool size. Replicas sync parameter values from this model at
  // the start of every call.
  double nll_backward(const nn::Matrix& x, util::ThreadPool* pool = nullptr);

  std::vector<nn::Param*> parameters();
  std::size_t parameter_count();
  void zero_grad();

  void save(const std::string& path);
  void load(const std::string& path);

 private:
  // The single-threaded nll_backward, run by this model or by a replica.
  double nll_backward_serial(const nn::Matrix& x);
  void ensure_replicas(std::size_t count);

  FlowConfig config_;
  std::vector<std::unique_ptr<AffineCoupling>> couplings_;

  // Training-only workspaces for nll_backward: activations and gradients
  // ping-pong between two buffers instead of reallocating per coupling.
  nn::Matrix fwd_ws_a_;
  nn::Matrix fwd_ws_b_;
  nn::Matrix grad_ws_a_;
  nn::Matrix grad_ws_b_;
  std::vector<double> log_det_ws_;
  std::vector<double> grad_log_det_ws_;

  // Batch-parallel training state: one model replica and one input-shard
  // buffer per pool worker, created lazily and reused across steps.
  std::vector<std::unique_ptr<FlowModel>> replicas_;
  std::vector<nn::Matrix> shard_ws_;
};

// log N(z; 0, I) for one row.
double standard_normal_log_density(const float* z, std::size_t dim);

}  // namespace passflow::flow
