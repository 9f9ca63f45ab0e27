// Tests for StaticSampler, DynamicSampler (Algorithm 1), Gaussian Smoothing
// and PivotSampler on a small untrained/randomized flow — the sampler logic
// is independent of model quality.
#include <gtest/gtest.h>

#include <unordered_set>

#include "data/alphabet.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/pivot_sampler.hpp"
#include "guessing/static_sampler.hpp"
#include "test_support.hpp"

namespace passflow::guessing {
namespace {

class SamplerTest : public ::testing::Test {
 protected:
  // The shared trained tiny flow is a non-trivial map, which is all the
  // sampler logic needs; training happens once per process.
  SamplerTest()
      : encoder_(passflow::testing::tiny_trained_flow().encoder),
        model_(passflow::testing::tiny_trained_flow().model) {}

  const data::Encoder& encoder_;
  const flow::FlowModel& model_;
};

TEST_F(SamplerTest, StaticProducesRequestedCount) {
  StaticSampler sampler(model_, encoder_);
  std::vector<std::string> out;
  sampler.generate(1000, out);
  EXPECT_EQ(out.size(), 1000u);
}

TEST_F(SamplerTest, StaticIsDeterministicPerSeed) {
  StaticSamplerConfig config;
  config.seed = 5;
  StaticSampler a(model_, encoder_, config);
  StaticSampler b(model_, encoder_, config);
  std::vector<std::string> out_a, out_b;
  a.generate(200, out_a);
  b.generate(200, out_b);
  EXPECT_EQ(out_a, out_b);
}

TEST_F(SamplerTest, StaticOutputsAreDecodable) {
  StaticSampler sampler(model_, encoder_);
  std::vector<std::string> out;
  sampler.generate(500, out);
  for (const auto& p : out) {
    EXPECT_LE(p.size(), 6u);
    EXPECT_TRUE(encoder_.alphabet().validates(p)) << p;
  }
}

TEST_F(SamplerTest, StaticNameReflectsSmoothing) {
  StaticSamplerConfig config;
  EXPECT_EQ(StaticSampler(model_, encoder_, config).name(), "PassFlow-Static");
  config.smoothing.enabled = true;
  EXPECT_EQ(StaticSampler(model_, encoder_, config).name(),
            "PassFlow-Static+GS");
}

TEST_F(SamplerTest, DynamicStaysStaticBeforeAlphaMatches) {
  DynamicSamplerConfig config;
  config.alpha = 10;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(100, out);
  EXPECT_FALSE(sampler.dynamic_active());
  // Register fewer than alpha matches.
  for (std::size_t i = 0; i < 10; ++i) sampler.on_match(i, out[i]);
  EXPECT_FALSE(sampler.dynamic_active());  // needs strictly more than alpha
  sampler.on_match(10, out[10]);
  EXPECT_TRUE(sampler.dynamic_active());
}

TEST_F(SamplerTest, DynamicRegistersMatchLatents) {
  DynamicSampler sampler(model_, encoder_);
  std::vector<std::string> out;
  sampler.generate(50, out);
  EXPECT_EQ(sampler.match_count(), 0u);
  sampler.on_match(3, out[3]);
  sampler.on_match(7, out[7]);
  EXPECT_EQ(sampler.match_count(), 2u);
}

TEST_F(SamplerTest, DynamicIgnoresOutOfRangeIndex) {
  DynamicSampler sampler(model_, encoder_);
  std::vector<std::string> out;
  sampler.generate(10, out);
  sampler.on_match(9999, "whatever");
  EXPECT_EQ(sampler.match_count(), 0u);
}

TEST_F(SamplerTest, PhiAgesOutComponentsAfterGamma) {
  DynamicSamplerConfig config;
  config.alpha = 0;  // activate immediately after the first match
  config.gamma = 2;
  config.batch_size = 64;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(64, out);
  sampler.on_match(0, out[0]);
  EXPECT_EQ(sampler.active_component_count(), 1u);

  // Each generate() call with an active component ages it by one.
  out.clear();
  sampler.generate(64, out);  // age 0 -> 1
  EXPECT_EQ(sampler.active_component_count(), 1u);
  out.clear();
  sampler.generate(64, out);  // age 1 -> 2 == gamma -> inactive
  EXPECT_EQ(sampler.active_component_count(), 0u);
  EXPECT_FALSE(sampler.dynamic_active());
}

TEST_F(SamplerTest, PhiDisabledKeepsComponentsActiveForever) {
  DynamicSamplerConfig config;
  config.alpha = 0;
  config.gamma = 1;
  config.use_phi = false;  // Fig. 5 "without phi" mode
  config.batch_size = 32;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(32, out);
  sampler.on_match(0, out[0]);
  for (int i = 0; i < 5; ++i) {
    out.clear();
    sampler.generate(32, out);
  }
  EXPECT_EQ(sampler.active_component_count(), 1u);
}

TEST_F(SamplerTest, DynamicSamplesConcentrateNearMatchedLatent) {
  // With a tiny sigma, guesses after a match should frequently repeat the
  // matched password (that is exactly the collision behavior §III-C
  // describes).
  DynamicSamplerConfig config;
  config.alpha = 0;
  config.sigma = 0.001;  // tight ball: the trained flow is a sharper map
                         // than the old perturbed-identity fixture
  config.gamma = 1000000;
  config.batch_size = 256;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(256, out);
  const std::string matched = out[17];
  sampler.on_match(17, matched);

  out.clear();
  sampler.generate(256, out);
  std::size_t repeats = 0;
  for (const auto& p : out) {
    if (p == matched) ++repeats;
  }
  EXPECT_GT(repeats, 128u);  // strong concentration
}

TEST_F(SamplerTest, GaussianSmoothingReducesCollisions) {
  // Same setup as above, but with GS enabled the repeated-password rate
  // must drop substantially (§III-C's motivation).
  DynamicSamplerConfig base;
  base.alpha = 0;
  base.sigma = 0.01;
  base.gamma = 1000000;
  base.batch_size = 512;

  auto collision_rate = [&](bool with_gs) {
    DynamicSamplerConfig config = base;
    config.smoothing.enabled = with_gs;
    config.smoothing.sigma_bins = 0.8;
    DynamicSampler sampler(model_, encoder_, config);
    std::vector<std::string> out;
    sampler.generate(512, out);
    sampler.on_match(0, out[0]);
    out.clear();
    sampler.generate(512, out);
    std::unordered_set<std::string> unique(out.begin(), out.end());
    return 1.0 - static_cast<double>(unique.size()) / 512.0;
  };

  const double without_gs = collision_rate(false);
  const double with_gs = collision_rate(true);
  EXPECT_LT(with_gs, without_gs);
}

TEST_F(SamplerTest, Table1ParameterSchedule) {
  EXPECT_EQ(table1_parameters(10000).alpha, 1u);
  EXPECT_EQ(table1_parameters(10000).gamma, 2u);
  EXPECT_EQ(table1_parameters(100000).alpha, 1u);
  EXPECT_EQ(table1_parameters(1000000).alpha, 5u);
  EXPECT_EQ(table1_parameters(10000000).alpha, 50u);
  EXPECT_EQ(table1_parameters(10000000).gamma, 10u);
  EXPECT_DOUBLE_EQ(table1_parameters(100000000).sigma, 0.15);
  EXPECT_DOUBLE_EQ(table1_parameters(10000).sigma, 0.12);
}

TEST_F(SamplerTest, DynamicNameReflectsConfiguration) {
  DynamicSamplerConfig config;
  EXPECT_EQ(DynamicSampler(model_, encoder_, config).name(),
            "PassFlow-Dynamic");
  config.smoothing.enabled = true;
  EXPECT_EQ(DynamicSampler(model_, encoder_, config).name(),
            "PassFlow-Dynamic+GS");
  config.smoothing.enabled = false;
  config.use_phi = false;
  EXPECT_EQ(DynamicSampler(model_, encoder_, config).name(),
            "PassFlow-Dynamic-nophi");
}

TEST_F(SamplerTest, PhiKindNamesRoundTrip) {
  for (const std::string name : {"step", "linear", "exponential", "uniform"}) {
    EXPECT_EQ(phi_kind_name(parse_phi_kind(name)), name);
  }
  EXPECT_THROW(parse_phi_kind("quadratic"), std::invalid_argument);
}

TEST_F(SamplerTest, LinearPhiAgesOutAtGamma) {
  DynamicSamplerConfig config;
  config.alpha = 0;
  config.gamma = 3;
  config.phi_kind = PhiKind::kLinear;
  config.batch_size = 32;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(32, out);
  sampler.on_match(0, out[0]);
  // Ages 0,1,2 keep positive weight; age 3 == gamma drops to zero.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sampler.active_component_count(), 1u) << "iteration " << i;
    out.clear();
    sampler.generate(32, out);
  }
  EXPECT_EQ(sampler.active_component_count(), 0u);
}

TEST_F(SamplerTest, ExponentialPhiDecaysButSurvivesGamma) {
  DynamicSamplerConfig config;
  config.alpha = 0;
  config.gamma = 2;
  config.phi_kind = PhiKind::kExponential;
  config.batch_size = 32;
  DynamicSampler sampler(model_, encoder_, config);
  std::vector<std::string> out;
  sampler.generate(32, out);
  sampler.on_match(0, out[0]);
  // exp(-age/gamma) stays above the 0.01 cutoff well past gamma.
  for (int i = 0; i < 4; ++i) {
    out.clear();
    sampler.generate(32, out);
  }
  EXPECT_EQ(sampler.active_component_count(), 1u);
}

TEST_F(SamplerTest, PivotSamplerReturnsUniquePasswords) {
  PivotSampler pivot(model_, encoder_, "jimmy1");
  util::Rng rng(7);
  const auto samples = pivot.sample_unique(10, 0.15, rng);
  EXPECT_EQ(samples.size(), 10u);
  std::unordered_set<std::string> unique(samples.begin(), samples.end());
  EXPECT_EQ(unique.size(), samples.size());
}

TEST_F(SamplerTest, PivotSamplerSmallSigmaStaysCloseToPivot) {
  // At sigma -> 0 every sample decodes to the pivot itself, so requesting
  // many unique strings must stop at max_attempts with few results.
  PivotSampler pivot(model_, encoder_, "abc123");
  util::Rng rng(8);
  const auto samples = pivot.sample_unique(50, 1e-6, rng, 2048);
  EXPECT_LT(samples.size(), 5u);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples[0], "abc123");  // round-trip of the pivot
}

TEST_F(SamplerTest, PivotLatentMatchesForwardPass) {
  PivotSampler pivot(model_, encoder_, "pass12");
  const auto z = pivot.pivot_latent();
  EXPECT_EQ(z.size(), 6u);
}

TEST_F(SamplerTest, SmoothingSigmaZeroIsNoop) {
  nn::Matrix x(3, 4, 0.25f);
  util::Rng rng(9);
  apply_gaussian_smoothing(x, 0.0, encoder_.bin_width(), rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(x.data()[i], 0.25f);
  }
}

TEST_F(SamplerTest, SmoothingPerturbationScalesWithSigma) {
  util::Rng rng(10);
  nn::Matrix x_small(100, 10, 0.5f);
  nn::Matrix x_large(100, 10, 0.5f);
  apply_gaussian_smoothing(x_small, 0.1, encoder_.bin_width(), rng);
  apply_gaussian_smoothing(x_large, 2.0, encoder_.bin_width(), rng);
  double dev_small = 0.0, dev_large = 0.0;
  for (std::size_t i = 0; i < x_small.size(); ++i) {
    dev_small += std::abs(x_small.data()[i] - 0.5);
    dev_large += std::abs(x_large.data()[i] - 0.5);
  }
  EXPECT_LT(dev_small, dev_large / 5.0);
}

}  // namespace
}  // namespace passflow::guessing
