// Flow-based password strength estimation.
//
//   ./examples/password_strength [--passwords p1,p2,...]
//
// Because flows compute exact log p(x) (Eq. 5), a trained PassFlow model
// doubles as a strength meter in the spirit of Melicher et al. [30]: the
// higher the model's density at a password, the more guessable it is. This
// example trains a model, scores a mixed list, and prints a ranking with a
// coarse strength grade calibrated against the corpus distribution.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "data/synthetic_rockyou.hpp"
#include "flow/trainer.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace pf = passflow;

namespace {
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  pf::util::set_log_level(pf::util::LogLevel::kWarn);
  std::vector<std::string> candidates = split_csv(flags.get_string(
      "passwords",
      "123456,jessica1,dragon12,Tr0ub4d.r,zq0x!vk2,iloveyou,p4ssw0rd"));

  pf::data::SyntheticRockyou generator({}, 42);
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  pf::flow::FlowConfig config;
  config.num_couplings = 6;
  config.hidden = 64;
  config.residual_blocks = 1;
  pf::util::Rng rng(7);
  pf::flow::FlowModel model(config, rng);
  pf::flow::TrainConfig train_config;
  train_config.epochs = 6;
  pf::flow::Trainer trainer(model, train_config);
  std::printf("training strength model on 20000 synthetic passwords...\n");
  const auto corpus = generator.generate(20000);
  trainer.train(corpus, encoder);

  // Calibrate: density quantiles of real (corpus) passwords.
  std::vector<std::string> sample(corpus.begin(), corpus.begin() + 2000);
  std::vector<double> corpus_lp =
      model.log_prob_batch(encoder.encode_batch(sample));
  std::sort(corpus_lp.begin(), corpus_lp.end());
  auto quantile = [&](double q) {
    return corpus_lp[static_cast<std::size_t>(
        q * static_cast<double>(corpus_lp.size() - 1))];
  };
  const double weak_cut = quantile(0.25);    // denser than 75% of corpus
  const double strong_cut = quantile(0.01);  // sparser than 99% of corpus

  struct Scored {
    std::string password;
    double log_prob;
  };
  std::vector<Scored> scored;
  for (const auto& password : candidates) {
    if (password.size() > encoder.dim() ||
        !encoder.alphabet().validates(password)) {
      std::printf("  (skipping unrepresentable password \"%s\")\n",
                  password.c_str());
      continue;
    }
    const auto lp = model.log_prob_batch(encoder.encode_batch({password}));
    scored.push_back({password, lp[0]});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.log_prob > b.log_prob;
            });

  std::printf("\n%-14s %10s  %s\n", "password", "log p(x)", "grade");
  std::printf("--------------------------------------------\n");
  for (const auto& s : scored) {
    const char* grade = s.log_prob > weak_cut      ? "WEAK (dense region)"
                        : s.log_prob > strong_cut ? "MEDIUM"
                                                   : "STRONG (sparse region)";
    std::printf("%-14s %10.2f  %s\n", s.password.c_str(), s.log_prob, grade);
  }
  std::printf("\ngrades calibrated on corpus density quantiles "
              "(weak>%.1f, strong<%.1f)\n", weak_cut, strong_cut);
  return 0;
}
