#include "guessing/matcher.hpp"

#include <gtest/gtest.h>

#include "guessing/metrics.hpp"

namespace passflow::guessing {
namespace {

TEST(Matcher, ContainsExactMatchesOnly) {
  HashSetMatcher matcher({"alpha", "beta"});
  EXPECT_TRUE(matcher.contains("alpha"));
  EXPECT_TRUE(matcher.contains("beta"));
  EXPECT_FALSE(matcher.contains("Alpha"));
  EXPECT_FALSE(matcher.contains("alph"));
  EXPECT_FALSE(matcher.contains(""));
}

TEST(Matcher, SizeDeduplicates) {
  HashSetMatcher matcher({"x", "x", "y"});
  EXPECT_EQ(matcher.test_set_size(), 2u);
}

TEST(Matcher, EmptyTestSet) {
  HashSetMatcher matcher({});
  EXPECT_EQ(matcher.test_set_size(), 0u);
  EXPECT_FALSE(matcher.contains("anything"));
}

TEST(Matcher, ContainsBatchMatchesPerItemProbes) {
  HashSetMatcher matcher({"alpha", "beta", "gamma"});
  const std::vector<std::string> batch = {"alpha", "nope", "gamma", "",
                                          "beta", "alpha"};
  std::vector<char> membership;
  matcher.contains_batch(batch, nullptr, membership);
  ASSERT_EQ(membership.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(membership[i] != 0, matcher.contains(batch[i])) << batch[i];
  }
}

TEST(Checkpoints, PowersOfTenUpToBudget) {
  const auto points = power_of_ten_checkpoints(100000);
  EXPECT_EQ(points, (std::vector<std::size_t>{10, 100, 1000, 10000, 100000}));
}

TEST(Checkpoints, NonPowerBudgetAppended) {
  const auto points = power_of_ten_checkpoints(2500);
  EXPECT_EQ(points, (std::vector<std::size_t>{10, 100, 1000, 2500}));
}

TEST(Checkpoints, TinyBudget) {
  const auto points = power_of_ten_checkpoints(5);
  EXPECT_EQ(points, (std::vector<std::size_t>{5}));
}

TEST(RunResult, AtFindsCheckpoint) {
  RunResult result;
  Checkpoint cp;
  cp.guesses = 100;
  cp.matched = 7;
  result.checkpoints.push_back(cp);
  EXPECT_EQ(result.at(100).matched, 7u);
  EXPECT_THROW(result.at(999), std::out_of_range);
}

}  // namespace
}  // namespace passflow::guessing
