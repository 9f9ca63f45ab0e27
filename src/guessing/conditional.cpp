#include "guessing/conditional.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace passflow::guessing {

ConditionalGuesser::ConditionalGuesser(const flow::FlowModel& model,
                                       const data::Encoder& encoder,
                                       ConditionalConfig config)
    : model_(&model), encoder_(&encoder), config_(config), rng_(config.seed) {}

bool ConditionalGuesser::matches_pattern(const std::string& candidate,
                                         const std::string& pattern) const {
  if (candidate.size() != pattern.size()) return false;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != config_.wildcard && candidate[i] != pattern[i]) {
      return false;
    }
  }
  return true;
}

std::vector<ScoredGuess> ConditionalGuesser::complete(
    const std::string& pattern, std::size_t count) {
  const std::size_t dim = encoder_->dim();
  if (pattern.empty() || pattern.size() > dim) {
    throw std::invalid_argument("pattern length out of range: " + pattern);
  }
  const auto& alphabet = encoder_->alphabet();
  for (char c : pattern) {
    if (c != config_.wildcard && !alphabet.contains(c)) {
      throw std::invalid_argument("pattern character outside alphabet");
    }
  }

  const float bin = encoder_->bin_width();
  // Feature values for the pinned positions (bin centers), and PAD for the
  // tail beyond the pattern length.
  std::vector<float> pinned(dim, 0.5f * bin);  // PAD center by default
  std::vector<bool> is_pinned(dim, true);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == config_.wildcard) {
      is_pinned[i] = false;
    } else {
      const auto code = alphabet.code_of(pattern[i]);
      pinned[i] = (static_cast<float>(*code) + 0.5f) * bin;
    }
  }

  std::unordered_map<std::string, double> best;  // password -> log prob
  const std::size_t batch = config_.batch_size;

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    // Seed candidates: pinned positions at their bin centers (with
    // dequantization noise), wildcards uniform over non-PAD symbols.
    nn::Matrix x(batch, dim);
    for (std::size_t r = 0; r < batch; ++r) {
      float* row = x.row(r);
      for (std::size_t d = 0; d < dim; ++d) {
        if (is_pinned[d]) {
          row[d] = pinned[d] +
                   (static_cast<float>(rng_.uniform()) - 0.5f) * bin * 0.9f;
        } else {
          // Uniform over codes 1..size-1 (exclude PAD: wildcards stand for
          // a real character).
          const auto code = 1 + rng_.uniform_index(alphabet.size() - 1);
          row[d] = (static_cast<float>(code) + static_cast<float>(
                        rng_.uniform())) * bin;
        }
      }
    }

    // Latent perturbation: exploit smoothness to move candidates toward
    // high-density completions.
    nn::Matrix z = model_->forward_inference(x);
    for (std::size_t i = 0; i < z.size(); ++i) {
      z.data()[i] += static_cast<float>(
          rng_.normal(0.0, config_.latent_sigma));
    }
    nn::Matrix candidate = model_->inverse(z);

    // Projection: restore the pinned coordinates exactly.
    for (std::size_t r = 0; r < batch; ++r) {
      float* row = candidate.row(r);
      for (std::size_t d = 0; d < dim; ++d) {
        if (is_pinned[d]) row[d] = pinned[d];
      }
    }

    const auto decoded = encoder_->decode_batch(candidate);
    std::vector<std::string> valid;
    std::vector<std::size_t> valid_rows;
    for (std::size_t r = 0; r < decoded.size(); ++r) {
      if (matches_pattern(decoded[r], pattern) && !best.count(decoded[r])) {
        valid.push_back(decoded[r]);
        valid_rows.push_back(r);
      }
    }
    if (valid.empty()) continue;
    const auto log_probs =
        model_->log_prob_batch(encoder_->encode_batch(valid));
    for (std::size_t i = 0; i < valid.size(); ++i) {
      auto [it, inserted] = best.emplace(valid[i], log_probs[i]);
      if (!inserted) it->second = std::max(it->second, log_probs[i]);
    }
  }

  std::vector<ScoredGuess> out;
  out.reserve(best.size());
  for (const auto& [password, log_prob] : best) {
    out.push_back({password, log_prob});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.log_prob > b.log_prob;
  });
  if (out.size() > count) out.resize(count);
  return out;
}

}  // namespace passflow::guessing
