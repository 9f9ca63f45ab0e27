#include "guessing/pivot_sampler.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "guessing/interpolation.hpp"
#include "util/flat_string_set.hpp"

namespace passflow::guessing {

PivotSampler::PivotSampler(const flow::FlowModel& model,
                           const data::Encoder& encoder,
                           const std::string& pivot)
    : model_(&model),
      encoder_(&encoder),
      pivot_latent_(latent_of(model, encoder, pivot)) {}

std::vector<std::string> PivotSampler::sample_unique(
    std::size_t count, double sigma, util::Rng& rng,
    std::size_t max_attempts) const {
  std::vector<std::string> unique;
  util::FlatStringSet seen;
  const std::size_t batch = 256;
  std::size_t attempts = 0;
  while (unique.size() < count && attempts < max_attempts) {
    nn::Matrix z(batch, encoder_->dim());
    for (std::size_t r = 0; r < batch; ++r) {
      float* row = z.row(r);
      for (std::size_t d = 0; d < z.cols(); ++d) {
        row[d] = static_cast<float>(pivot_latent_[d] + rng.normal(0.0, sigma));
      }
    }
    const nn::Matrix x = model_->inverse(z);
    for (std::size_t r = 0; r < x.rows() && unique.size() < count; ++r) {
      std::string password = encoder_->decode(x.row(r), x.cols());
      if (password.empty() || !seen.insert(password)) continue;
      unique.push_back(std::move(password));
    }
    attempts += batch;
  }
  return unique;
}

}  // namespace passflow::guessing
