// Figure 3: interpolation in latent space between "jimmy91" and "123456",
// decoded back to the password space at each step (Algorithm 2).
#include "analysis/latent_stats.hpp"
#include "bench_support.hpp"
#include "guessing/interpolation.hpp"

namespace pf = passflow;
using pf::bench::BenchEnv;
using pf::bench::BenchScale;

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  BenchScale scale = pf::bench::scale_from_flags(flags);
  const std::string start = flags.get_string("start", "jimmy91");
  const std::string target = flags.get_string("target", "123456");
  const std::size_t steps = static_cast<std::size_t>(
      flags.get_int("steps", 14));

  BenchEnv env(scale);
  const std::vector<std::string> flow_train = env.flow_train_subset(scale);
  auto model = pf::bench::train_flow(env, scale, {}, &flow_train);

  const auto path =
      pf::guessing::interpolate(*model, env.encoder, start, target, steps);

  std::printf("\nFigure 3: latent interpolation \"%s\" -> \"%s\" "
              "(left-to-right, scale=%s)\n\n",
              start.c_str(), target.c_str(), scale.name.c_str());
  pf::util::CsvWriter csv(pf::bench::output_path("fig3_interpolation.csv"),
                          {"step", "password", "log_prob"});
  const auto log_probs =
      model->log_prob_batch(env.encoder.encode_batch([&] {
        // Re-encode decoded strings for density evaluation; filter nothing
        // since decode always produces representable passwords.
        return path;
      }()));
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::printf("%s ", path[i].c_str());
    csv.write_row({std::to_string(i), path[i],
                   std::to_string(log_probs[i])});
  }
  std::printf("\n");

  // Smoothness evidence (§V-B): intermediate samples should have density in
  // the same ballpark as the endpoints, far above random strings.
  double mid_lp = 0.0;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) mid_lp += log_probs[i];
  mid_lp /= static_cast<double>(path.size() - 2);
  std::printf("\nendpoint log-probs: %.2f / %.2f; mean intermediate: %.2f\n",
              log_probs.front(), log_probs.back(), mid_lp);

  // Consecutive samples should be similar (shared structure).
  double mean_step_edit = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    mean_step_edit += static_cast<double>(
        pf::analysis::edit_distance(path[i - 1], path[i]));
  }
  mean_step_edit /= static_cast<double>(path.size() - 1);
  std::printf("mean edit distance between consecutive samples: %.2f\n",
              mean_step_edit);
  std::printf("CSV written to %s\n", csv.path().c_str());
  return 0;
}
