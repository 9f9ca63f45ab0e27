// Serial bookkeeping of the attack loop on a scripted stream: AttackSession
// generates exactly the budget, counts each matched password once, divides
// by the test-set size, reports distinct guesses, hands on_match the index
// into the last batch, samples distinct non-matches and lays checkpoints the
// way the paper's tables read them. Bitwise equivalence with the seed loop
// lives in session_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "guessing/session.hpp"
#include "reference_harness.hpp"

namespace passflow::guessing {
namespace {

using testing::run_session;

// Replays a fixed script cyclically and records feedback.
class ScriptedGenerator : public GuessGenerator {
 public:
  explicit ScriptedGenerator(std::vector<std::string> script)
      : script_(std::move(script)) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(script_[cursor_ % script_.size()]);
      ++cursor_;
    }
  }

  void on_match(std::size_t index_in_batch,
                const std::string& password) override {
    match_indices_.push_back(index_in_batch);
    match_passwords_.push_back(password);
  }

  std::string name() const override { return "scripted"; }

  std::size_t cursor_ = 0;
  std::vector<std::size_t> match_indices_;
  std::vector<std::string> match_passwords_;

 private:
  std::vector<std::string> script_;
};

TEST(AttackSession, GeneratesExactBudget) {
  ScriptedGenerator gen({"a", "b", "c"});
  HashSetMatcher matcher({"nothing"});
  SessionConfig config;
  config.budget = 95;
  config.chunk_size = 10;
  const RunResult result = run_session(gen, matcher, config);
  EXPECT_EQ(gen.cursor_, 95u);
  EXPECT_EQ(result.final().guesses, 95u);
}

TEST(AttackSession, CountsEachMatchedPasswordOnce) {
  // "hit" appears many times in the stream but counts once.
  ScriptedGenerator gen({"hit", "miss", "hit", "miss2"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 100;
  const RunResult result = run_session(gen, matcher, config);
  EXPECT_EQ(result.final().matched, 1u);
  ASSERT_EQ(gen.match_passwords_.size(), 1u);
  EXPECT_EQ(gen.match_passwords_[0], "hit");
}

TEST(AttackSession, MatchedPercentUsesTestSetSize) {
  ScriptedGenerator gen({"a", "b", "x", "y"});
  HashSetMatcher matcher({"a", "b", "c", "d"});  // 4 entries, 2 matched
  SessionConfig config;
  config.budget = 40;
  const RunResult result = run_session(gen, matcher, config);
  EXPECT_EQ(result.final().matched, 2u);
  EXPECT_DOUBLE_EQ(result.final().matched_percent, 50.0);
}

TEST(AttackSession, UniqueCountsDistinctGuesses) {
  ScriptedGenerator gen({"a", "b", "a", "a"});
  HashSetMatcher matcher({});
  SessionConfig config;
  config.budget = 100;
  const RunResult result = run_session(gen, matcher, config);
  EXPECT_EQ(result.final().unique, 2u);
}

TEST(AttackSession, CheckpointsAreMonotone) {
  ScriptedGenerator gen({"a", "b", "c", "d", "e", "hit"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 10000;
  const RunResult result = run_session(gen, matcher, config);
  ASSERT_GE(result.checkpoints.size(), 3u);
  for (std::size_t i = 1; i < result.checkpoints.size(); ++i) {
    EXPECT_GE(result.checkpoints[i].guesses,
              result.checkpoints[i - 1].guesses);
    EXPECT_GE(result.checkpoints[i].matched,
              result.checkpoints[i - 1].matched);
    EXPECT_GE(result.checkpoints[i].unique,
              result.checkpoints[i - 1].unique);
  }
}

TEST(AttackSession, DefaultCheckpointsArePowersOfTen) {
  ScriptedGenerator gen({"a"});
  HashSetMatcher matcher({});
  SessionConfig config;
  config.budget = 1000;
  const RunResult result = run_session(gen, matcher, config);
  std::vector<std::size_t> guesses;
  for (const auto& cp : result.checkpoints) guesses.push_back(cp.guesses);
  EXPECT_EQ(guesses, (std::vector<std::size_t>{10, 100, 1000}));
}

TEST(AttackSession, OnMatchIndexPointsIntoLastBatch) {
  // chunk_size=4 so the batch is {m0,m1,m2,hit}; the index of "hit" is 3.
  ScriptedGenerator gen({"m0", "m1", "m2", "hit"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 4;
  config.chunk_size = 4;
  run_session(gen, matcher, config);
  ASSERT_EQ(gen.match_indices_.size(), 1u);
  EXPECT_EQ(gen.match_indices_[0], 3u);
}

TEST(AttackSession, NonMatchedSamplesAreDistinctNonMatches) {
  ScriptedGenerator gen({"hit", "n1", "n2", "n1"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 100;
  config.non_matched_samples = 10;
  const RunResult result = run_session(gen, matcher, config);
  EXPECT_EQ(result.sample_non_matched.size(), 2u);
  for (const auto& s : result.sample_non_matched) {
    EXPECT_FALSE(matcher.contains(s));
  }
}

}  // namespace
}  // namespace passflow::guessing
