// Quickstart: train a small PassFlow model on a synthetic password corpus
// and sample guesses from it.
//
//   ./examples/quickstart
//
// Walks through the whole public API in ~1 minute: corpus generation,
// encoding, flow training, static sampling, and exact density evaluation.
#include <cstdio>

#include "data/synthetic_rockyou.hpp"
#include "flow/trainer.hpp"
#include "guessing/static_sampler.hpp"
#include "util/logging.hpp"

namespace pf = passflow;

int main() {
  pf::util::set_log_level(pf::util::LogLevel::kInfo);

  // 1. Build a corpus. In a real engagement this would be a leaked list;
  //    here we use the repo's synthetic RockYou-like generator.
  pf::data::CorpusConfig corpus_config;
  corpus_config.max_length = 10;
  pf::data::SyntheticRockyou generator(corpus_config, /*seed=*/42);
  const auto passwords = generator.generate(20000);
  std::printf("corpus: %zu passwords (with natural duplication)\n",
              passwords.size());

  // 2. Encoder: passwords <-> continuous feature vectors (§IV-D).
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);

  // 3. A small flow. The paper's architecture is FlowConfig{} defaults
  //    (18 couplings, hidden 256); this quickstart trains a lighter one.
  pf::flow::FlowConfig config;
  config.num_couplings = 6;
  config.hidden = 64;
  config.residual_blocks = 1;
  pf::util::Rng rng(7);
  pf::flow::FlowModel model(config, rng);
  std::printf("model: %zu couplings, %zu parameters\n", config.num_couplings,
              model.parameter_count());

  // 4. Train with exact negative log-likelihood (Eq. 7-8).
  pf::flow::TrainConfig train_config;
  train_config.epochs = 5;
  train_config.batch_size = 512;
  pf::flow::Trainer trainer(model, train_config);
  const auto result = trainer.train(passwords, encoder);
  std::printf("best validation NLL %.3f at epoch %zu\n",
              result.best_validation_nll, result.best_epoch);

  // 5. Sample guesses: z ~ N(0, I), x = f^-1(z), decode.
  pf::guessing::StaticSampler sampler(model, encoder);
  std::vector<std::string> guesses;
  sampler.generate(24, guesses);
  std::printf("\nsample guesses:\n");
  for (std::size_t i = 0; i < guesses.size(); ++i) {
    std::printf("  %-12s%s", guesses[i].c_str(),
                (i + 1) % 4 == 0 ? "\n" : "");
  }

  // 6. Exact log-likelihoods — the flow-model superpower (no ELBO bound).
  const auto log_probs = model.log_prob_batch(
      encoder.encode_batch({"123456", "jessica1", "zq0x!vk2"}));
  std::printf("\nexact log p(x):\n");
  std::printf("  123456   -> %8.2f (very common)\n", log_probs[0]);
  std::printf("  jessica1 -> %8.2f (human-like)\n", log_probs[1]);
  std::printf("  zq0x!vk2 -> %8.2f (random-ish)\n", log_probs[2]);
  return 0;
}
