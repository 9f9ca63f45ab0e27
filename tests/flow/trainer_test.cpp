#include "flow/trainer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/alphabet.hpp"
#include "test_support.hpp"

namespace passflow::flow {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  passflow::testing::QuietLogs quiet_;
  data::Encoder encoder_{data::Alphabet::compact(), 6};
};

TEST_F(TrainerTest, NllDecreasesOnToyCorpus) {
  util::Rng rng(1);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);

  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 64;
  config.log_every = 0;
  config.validation_fraction = 0.0;
  Trainer trainer(model, config);

  const auto result =
      trainer.train(passflow::testing::toy_corpus(40), encoder_);
  ASSERT_EQ(result.history.size(), 8u);
  // Later epochs should beat the first epoch clearly.
  EXPECT_LT(result.history.back().train_nll,
            result.history.front().train_nll - 0.5);
}

TEST_F(TrainerTest, TrainedModelAssignsHigherDensityToTrainingData) {
  util::Rng rng(2);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  TrainConfig config;
  config.epochs = 10;
  config.batch_size = 64;
  config.log_every = 0;
  Trainer trainer(model, config);
  trainer.train(passflow::testing::toy_corpus(40), encoder_);

  // Training passwords should be more probable than random garbage strings.
  const auto train_lp = model.log_prob_batch(encoder_.encode_batch({"123456"}));
  const auto junk_lp = model.log_prob_batch(encoder_.encode_batch({"zqxjwv"}));
  EXPECT_GT(train_lp[0], junk_lp[0]);
}

TEST_F(TrainerTest, EpochCallbackFires) {
  util::Rng rng(3);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.log_every = 0;
  Trainer trainer(model, config);
  std::size_t calls = 0;
  trainer.train(passflow::testing::toy_corpus(5), encoder_,
                [&](const EpochStats& stats) {
                  EXPECT_EQ(stats.epoch, calls);
                  ++calls;
                });
  EXPECT_EQ(calls, 3u);
}

TEST_F(TrainerTest, BestEpochIsTracked) {
  util::Rng rng(4);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 64;
  config.log_every = 0;
  config.validation_fraction = 0.2;
  Trainer trainer(model, config);
  const auto result =
      trainer.train(passflow::testing::toy_corpus(30), encoder_);
  EXPECT_LT(result.best_epoch, 5u);
  double min_val = result.history.front().validation_nll;
  for (const auto& epoch : result.history) {
    min_val = std::min(min_val, epoch.validation_nll);
  }
  EXPECT_DOUBLE_EQ(result.best_validation_nll, min_val);
}

TEST_F(TrainerTest, NonFiniteLossThrowsBeforeTheOptimizerStep) {
  // A NaN scale bound reaches every row's z and log-det directly; a NaN
  // trunk weight reaches them through ReLU, which propagates NaN.
  for (const std::string poison :
       {"coupling0.s_scale", "coupling0.net.in.weight"}) {
    SCOPED_TRACE(poison);
    util::Rng rng(6);
    FlowModel model(passflow::testing::tiny_flow_config(), rng);
    const auto params = model.parameters();
    std::size_t poisoned = params.size();
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i]->name == poison) poisoned = i;
    }
    ASSERT_LT(poisoned, params.size());
    params[poisoned]->value(0, 0) = std::numeric_limits<float>::quiet_NaN();
    std::vector<nn::Matrix> before;
    for (const nn::Param* p : params) before.push_back(p->value);

    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    config.log_every = 0;
    config.validation_fraction = 0.0;
    Trainer trainer(model, config);
    try {
      trainer.train(passflow::testing::toy_corpus(10), encoder_);
      FAIL() << "training on a NaN weight did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("epoch 0, batch 0"),
                std::string::npos)
          << e.what();
    }
    // The optimizer never stepped: every other weight is untouched.
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i == poisoned) continue;
      const nn::Matrix& value = params[i]->value;
      for (std::size_t j = 0; j < value.size(); ++j) {
        ASSERT_EQ(value.data()[j], before[i].data()[j]) << params[i]->name;
      }
    }
  }
}

TEST_F(TrainerTest, ValidationHoldoutShrinksTrainSet) {
  // With validation_fraction=0.5 over 40 distinct entries, epochs see ~20.
  util::Rng rng(5);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 1000;
  config.log_every = 0;
  config.validation_fraction = 0.5;
  Trainer trainer(model, config);
  const auto result =
      trainer.train(passflow::testing::toy_corpus(10), encoder_);
  ASSERT_EQ(result.history.size(), 1u);
}

}  // namespace
}  // namespace passflow::flow
