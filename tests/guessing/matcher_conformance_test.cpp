// One behavioral contract, every Matcher implementation.
//
// Each test runs value-parameterized against HashSetMatcher and the
// disk-backed MappedMatcher (built through IndexBuilder into a temp file).
// Anything added to the Matcher interface belongs here first: the attack
// engine treats all implementations as interchangeable, so behavioral
// drift between them silently corrupts metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "guessing/mapped_matcher.hpp"
#include "guessing/matcher.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

class MatcherConformance : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<const Matcher> make_matcher(
      const std::vector<std::string>& keys) {
    const std::string& kind = GetParam();
    if (kind == "hashset") return std::make_unique<HashSetMatcher>(keys);
    EXPECT_EQ(kind, "mapped");
    static int counter = 0;
    const std::string path = ::testing::TempDir() + "conformance_" +
                             std::to_string(counter++) + ".pfidx";
    IndexBuilderConfig config;
    config.num_shards = 3;
    IndexBuilder::build(keys, path, config);
    index_paths_.push_back(path);
    return std::make_unique<MappedMatcher>(path);
  }

  void TearDown() override {
    for (const auto& path : index_paths_) std::remove(path.c_str());
  }

 private:
  std::vector<std::string> index_paths_;
};

TEST_P(MatcherConformance, EmptyTestSet) {
  const auto matcher = make_matcher({});
  EXPECT_EQ(matcher->test_set_size(), 0u);
  EXPECT_FALSE(matcher->contains("anything"));
  EXPECT_FALSE(matcher->contains(""));
  std::vector<char> membership;
  matcher->contains_batch({"a", "", "b"}, nullptr, membership);
  EXPECT_EQ(membership, (std::vector<char>{0, 0, 0}));
}

TEST_P(MatcherConformance, EmptyStringIsAValidKey) {
  const auto matcher = make_matcher({"", "alpha"});
  EXPECT_EQ(matcher->test_set_size(), 2u);
  EXPECT_TRUE(matcher->contains(""));
  EXPECT_TRUE(matcher->contains("alpha"));
  EXPECT_FALSE(matcher->contains(" "));
}

TEST_P(MatcherConformance, DuplicateKeysAreDeduplicated) {
  const auto matcher = make_matcher({"x", "x", "y", "y", "y", "x"});
  EXPECT_EQ(matcher->test_set_size(), 2u);
  EXPECT_TRUE(matcher->contains("x"));
  EXPECT_TRUE(matcher->contains("y"));
  EXPECT_FALSE(matcher->contains("z"));
}

TEST_P(MatcherConformance, NonAsciiAndEmbeddedNulBytes) {
  // Real leaked passwords are raw bytes, not text: UTF-8, Latin-1 high
  // bytes, control characters, even NULs must round-trip exactly.
  const std::vector<std::string> keys = {
      std::string("p\xC3\xA4ssw\xC3\xB6rd"),   // UTF-8 umlauts
      std::string("\xFF\xFE\x80\x7F"),          // high / boundary bytes
      std::string("nu\0ll", 5),                 // embedded NUL
      std::string("tab\tnewline\n"),            // control characters
  };
  const auto matcher = make_matcher(keys);
  EXPECT_EQ(matcher->test_set_size(), keys.size());
  for (const auto& key : keys) EXPECT_TRUE(matcher->contains(key));
  EXPECT_FALSE(matcher->contains(std::string("nu\0l", 4)));
  EXPECT_FALSE(matcher->contains("null"));
  EXPECT_FALSE(matcher->contains(std::string("\xFF\xFE\x80")));
  EXPECT_FALSE(matcher->contains("tab\tnewline"));
}

TEST_P(MatcherConformance, ContainsBatchEqualsPerKeyContains) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 600; ++i) {
    keys.push_back("pw" + std::to_string(i * 3));
  }
  const auto matcher = make_matcher(keys);
  // Above kParallelBatchThreshold so the pooled paths engage.
  std::vector<std::string> batch;
  for (std::size_t i = 0; i < 3000; ++i) {
    batch.push_back("pw" + std::to_string(util::mix64(i) % 2400));
  }
  batch.push_back("");

  std::vector<char> serial;
  matcher->contains_batch(batch, nullptr, serial);
  ASSERT_EQ(serial.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(serial[i] != 0, matcher->contains(batch[i])) << batch[i];
  }

  util::ThreadPool pool(4);
  std::vector<char> pooled;
  matcher->contains_batch(batch, &pool, pooled);
  EXPECT_EQ(serial, pooled);
}

TEST_P(MatcherConformance, MissHeavyWorkload) {
  // The realistic regime: almost every guess misses. No false positives,
  // and the few hits still land.
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 200; ++i) {
    keys.push_back("target" + std::to_string(i));
  }
  const auto matcher = make_matcher(keys);
  std::vector<std::string> batch;
  for (std::size_t i = 0; i < 5000; ++i) {
    batch.push_back("miss" + std::to_string(i));
    if (i % 50 == 0) batch.push_back("target" + std::to_string(i / 50));
  }
  std::vector<char> membership;
  matcher->contains_batch(batch, nullptr, membership);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool expected = batch[i].rfind("target", 0) == 0;
    EXPECT_EQ(membership[i] != 0, expected) << batch[i];
    if (membership[i] != 0) ++hits;
  }
  EXPECT_EQ(hits, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMatchers, MatcherConformance,
    ::testing::Values("hashset", "mapped"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace passflow::guessing
