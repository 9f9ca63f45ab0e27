// Reference implementation of the seed's serial guessing loop (generate ->
// match -> feedback -> checkpoint, one chunk at a time), kept verbatim as
// the gold standard the AttackSession equivalence suite compares against.
// Any divergence between this loop and the session engine is a regression
// by definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"
#include "guessing/metrics.hpp"
#include "guessing/session.hpp"
#include "util/hash.hpp"

namespace passflow::guessing::testing {

struct ReferenceConfig {
  std::size_t budget = 100000;
  std::vector<std::size_t> checkpoints;  // empty => powers of ten
  std::size_t chunk_size = 16384;
  std::size_t non_matched_samples = 40;
  bool track_unique = true;
  bool deliver_feedback = true;
};

// The seed serial loop: generate -> match -> feed matches back ->
// checkpoint, one chunk at a time on the calling thread.
inline RunResult reference_run(GuessGenerator& generator,
                               const Matcher& matcher,
                               ReferenceConfig config) {
  if (config.checkpoints.empty()) {
    config.checkpoints = power_of_ten_checkpoints(config.budget);
  }
  std::sort(config.checkpoints.begin(), config.checkpoints.end());

  RunResult result;
  std::unordered_set<std::string> unique_guesses;
  std::unordered_set<std::string> matched_set;
  std::unordered_set<std::string> non_matched_seen;

  std::size_t produced = 0;
  std::size_t checkpoint_index = 0;

  std::vector<std::string> batch;
  while (produced < config.budget) {
    const std::size_t next_stop =
        checkpoint_index < config.checkpoints.size()
            ? config.checkpoints[checkpoint_index]
            : config.budget;
    const std::size_t chunk =
        std::min(config.chunk_size, next_stop - produced);

    batch.clear();
    generator.generate(chunk, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string& guess = batch[i];
      if (config.track_unique) unique_guesses.insert(guess);
      if (matcher.contains(guess)) {
        if (matched_set.insert(guess).second) {
          result.matched_passwords.push_back(guess);
          if (config.deliver_feedback) generator.on_match(i, guess);
        }
      } else if (result.sample_non_matched.size() <
                     config.non_matched_samples &&
                 !guess.empty() && non_matched_seen.insert(guess).second) {
        result.sample_non_matched.push_back(guess);
      }
    }
    produced += batch.size();

    while (checkpoint_index < config.checkpoints.size() &&
           produced >= config.checkpoints[checkpoint_index]) {
      Checkpoint cp;
      cp.guesses = config.checkpoints[checkpoint_index];
      cp.unique = unique_guesses.size();
      cp.matched = matched_set.size();
      cp.matched_percent =
          matcher.test_set_size() > 0
              ? 100.0 * static_cast<double>(cp.matched) /
                    static_cast<double>(matcher.test_set_size())
              : 0.0;
      result.checkpoints.push_back(cp);
      ++checkpoint_index;
    }
  }

  if (result.checkpoints.empty() ||
      result.checkpoints.back().guesses != produced) {
    Checkpoint cp;
    cp.guesses = produced;
    cp.unique = unique_guesses.size();
    cp.matched = matched_set.size();
    cp.matched_percent =
        matcher.test_set_size() > 0
            ? 100.0 * static_cast<double>(cp.matched) /
                  static_cast<double>(matcher.test_set_size())
            : 0.0;
    result.checkpoints.push_back(cp);
  }
  return result;
}

// Runs one AttackSession to completion and returns its metrics.
inline RunResult run_session(GuessGenerator& generator, const Matcher& matcher,
                             SessionConfig config) {
  AttackSession session(generator, matcher, std::move(config));
  session.run();
  return session.result();
}

// Asserts every metric of two runs is identical (timing excluded).
#define PF_EXPECT_SAME_RUN(a, b)                                          \
  do {                                                                    \
    const ::passflow::guessing::RunResult& run_a = (a);                   \
    const ::passflow::guessing::RunResult& run_b = (b);                   \
    ASSERT_EQ(run_a.checkpoints.size(), run_b.checkpoints.size());        \
    for (std::size_t cp_i = 0; cp_i < run_a.checkpoints.size(); ++cp_i) { \
      EXPECT_EQ(run_a.checkpoints[cp_i].guesses,                          \
                run_b.checkpoints[cp_i].guesses);                         \
      EXPECT_EQ(run_a.checkpoints[cp_i].unique,                           \
                run_b.checkpoints[cp_i].unique);                          \
      EXPECT_EQ(run_a.checkpoints[cp_i].matched,                          \
                run_b.checkpoints[cp_i].matched);                         \
      EXPECT_DOUBLE_EQ(run_a.checkpoints[cp_i].matched_percent,           \
                       run_b.checkpoints[cp_i].matched_percent);          \
    }                                                                     \
    EXPECT_EQ(run_a.matched_passwords, run_b.matched_passwords);          \
    EXPECT_EQ(run_a.sample_non_matched, run_b.sample_non_matched);        \
  } while (0)

// Deterministic feedback-free stream with duplicates and matcher hits:
// guess i is "g<mix(i) % period>", so the stream revisits values and the
// unique count stays below the produced count. Supports save/resume.
class MixingGenerator : public GuessGenerator {
 public:
  explicit MixingGenerator(std::size_t period = 1 << 14)
      : period_(period) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(value_at(cursor_++));
    }
  }
  std::string name() const override { return "mixing"; }

  bool supports_state_serialization() const override { return true; }
  void save_state(std::ostream& out) const override {
    const std::uint64_t cursor = cursor_;
    out.write(reinterpret_cast<const char*>(&cursor), sizeof(cursor));
  }
  void load_state(std::istream& in) override {
    std::uint64_t cursor = 0;
    in.read(reinterpret_cast<char*>(&cursor), sizeof(cursor));
    cursor_ = cursor;
  }

  std::string value_at(std::size_t i) const {
    return "g" + std::to_string(util::mix64(i) % period_);
  }

 private:
  std::size_t period_;
  std::size_t cursor_ = 0;
};

}  // namespace passflow::guessing::testing
