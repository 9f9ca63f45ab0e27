// Dynamic Sampling with Penalization (Algorithm 1, Eq. 14).
//
// The latent prior starts as N(0, prior_sigma^2 I). Once more than alpha
// matches have been observed, sampling switches to a mixture of Gaussians
// centered on the latent points of matched passwords:
//
//   p(z|M) = sum_i phi(Mh[i]) N(z_i, sigma_i)                      (Eq. 14)
//
// phi is the step penalization of §IV-B: a component contributes weight 1
// while it has conditioned the prior for fewer than gamma sampling
// iterations, and 0 afterwards ("iteration" = one generate() call, i.e. one
// pass of Algorithm 1's loop body at batch granularity). Aged-out components
// stop stagnating the search (Fig. 5); when no component is active the
// sampler falls back to the base prior until fresh matches arrive.
//
// Table I's parameter schedule (alpha, sigma, gamma per guess budget) is
// available via table1_parameters().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/encoder.hpp"
#include "flow/flow_model.hpp"
#include "guessing/gaussian_smoothing.hpp"
#include "guessing/generator.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {

// Penalization function family (§IV-B implements the step function; §VII
// lists "the effects of different penalization functions" as future work —
// the extra kinds below implement that extension).
enum class PhiKind {
  kStep,         // phi = 1 while age < gamma, else 0 (paper, §IV-B)
  kLinear,       // phi = max(0, 1 - age/gamma)
  kExponential,  // phi = exp(-age/gamma)
  kUniform,      // phi = 1 always (Fig. 5's "without phi" baseline)
};

const char* phi_kind_name(PhiKind kind);
PhiKind parse_phi_kind(const std::string& name);

struct DynamicSamplerConfig {
  std::size_t alpha = 5;      // matches required before DS activates
  double sigma = 0.12;        // stddev of each mixture component
  std::size_t gamma = 2;      // phi threshold in iterations
  double prior_sigma = 1.0;   // base prior stddev
  std::size_t batch_size = 2048;
  GaussianSmoothingConfig smoothing;  // enabled => PassFlow-Dynamic+GS
  bool use_phi = true;        // false reproduces Fig. 5's "without phi"
  PhiKind phi_kind = PhiKind::kStep;
  std::uint64_t seed = 13;
  // Non-owning worker pool for the inverse + decode hot path. Mixture
  // sampling and smoothing stay on the calling thread so output is bitwise
  // identical with or without a pool. Null = fully serial.
  util::ThreadPool* pool = nullptr;
};

// The alpha/sigma/gamma schedule of Table I for a given guess budget.
DynamicSamplerConfig table1_parameters(std::size_t guess_budget);

class DynamicSampler : public GuessGenerator {
 public:
  DynamicSampler(const flow::FlowModel& model, const data::Encoder& encoder,
                 DynamicSamplerConfig config = {});

  void generate(std::size_t n, std::vector<std::string>& out) override;
  void on_match(std::size_t index_in_batch,
                const std::string& password) override;
  // Algorithm 1 conditions the prior on matches, so the session must not
  // overlap generation with matching for this sampler.
  bool uses_match_feedback() const override { return true; }
  std::string name() const override;

  // Full mixture state (RNG, components with ages, last-batch latents), so
  // a resumed Algorithm-1 run continues its conditioned prior exactly.
  bool supports_state_serialization() const override { return true; }
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  // Introspection for tests and the Fig. 5 bench.
  std::size_t match_count() const { return components_.size(); }
  std::size_t active_component_count() const;
  bool dynamic_active() const;

 private:
  struct Component {
    std::vector<float> latent;
    std::size_t age = 0;  // iterations spent conditioning the prior
  };

  double phi(const Component& c) const;

  const flow::FlowModel* model_;
  const data::Encoder* encoder_;
  DynamicSamplerConfig config_;
  util::Rng rng_;

  std::deque<Component> components_;  // M with Mh folded in as `age`
  nn::Matrix last_batch_latents_;     // maps on_match index -> latent
};

}  // namespace passflow::guessing
