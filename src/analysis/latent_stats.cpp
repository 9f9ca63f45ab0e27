#include "analysis/latent_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "guessing/interpolation.hpp"

namespace passflow::analysis {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

NeighborhoodStats probe_neighborhood(const flow::FlowModel& model,
                                     const data::Encoder& encoder,
                                     const std::string& pivot, double sigma,
                                     std::size_t count, util::Rng& rng) {
  const auto z_pivot = guessing::latent_of(model, encoder, pivot);

  nn::Matrix z(count, encoder.dim());
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t d = 0; d < encoder.dim(); ++d) {
      z(r, d) = static_cast<float>(z_pivot[d] + rng.normal(0.0, sigma));
    }
  }
  const nn::Matrix x = model.inverse(z);
  const auto passwords = encoder.decode_batch(x);

  // Density of the decoded strings (re-encoded deterministically): what the
  // smoothness claim is about — neighbors decode to probable passwords.
  NeighborhoodStats stats;
  stats.samples = count;
  std::unordered_map<std::string, std::size_t> histogram;
  std::vector<std::string> valid;
  for (const auto& password : passwords) {
    ++histogram[password];
    if (!password.empty() && password.size() <= encoder.dim() &&
        encoder.alphabet().validates(password)) {
      valid.push_back(password);
    }
    stats.mean_edit_distance +=
        static_cast<double>(edit_distance(password, pivot));
  }
  stats.mean_edit_distance /= static_cast<double>(count);

  std::size_t duplicates = 0;
  for (const auto& [_, c] : histogram) duplicates += c - 1;
  stats.collision_rate =
      static_cast<double>(duplicates) / static_cast<double>(count);

  if (!valid.empty()) {
    const nn::Matrix features = encoder.encode_batch(valid);
    const auto log_probs = model.log_prob_batch(features);
    double acc = 0.0;
    for (double lp : log_probs) acc += lp;
    stats.mean_log_prob = acc / static_cast<double>(log_probs.size());
  }
  return stats;
}

double mean_latent_distance(const flow::FlowModel& model,
                            const data::Encoder& encoder,
                            const std::vector<std::string>& passwords) {
  const nn::Matrix x = encoder.encode_batch(passwords);
  const nn::Matrix z = model.forward_inference(x);
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < z.rows(); ++i) {
    for (std::size_t j = i + 1; j < z.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < z.cols(); ++k) {
        const double diff = static_cast<double>(z(i, k)) - z(j, k);
        acc += diff * diff;
      }
      total += std::sqrt(acc);
      ++pairs;
    }
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace passflow::analysis
