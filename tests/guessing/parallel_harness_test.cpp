// Determinism of the pooled guessing path: pooled samplers must emit the
// serial sampler's stream, a pooled DynamicSampler run must reproduce the
// serial metrics, and the pipelined session must cover the exact budget and
// custom checkpoints. Runs under the `thread_safety` CTest label (and its
// TSan job); the pipeline's depth, tracker and resume cases live in
// session_parallel_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "guessing/dynamic_sampler.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "reference_harness.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

using passflow::testing::tiny_trained_flow;
using testing::run_session;

// A target set the samplers can actually hit: every 5th guess of a warmup
// run over the same model.
std::vector<std::string> reachable_targets() {
  const auto& env = tiny_trained_flow();
  StaticSamplerConfig config;
  config.seed = 404;
  StaticSampler sampler(env.model, env.encoder, config);
  std::vector<std::string> warmup;
  sampler.generate(5000, warmup);
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < warmup.size(); i += 5) {
    targets.push_back(warmup[i]);
  }
  return targets;
}

TEST(PooledSampler, StaticOutputIsIdentical) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);

  StaticSamplerConfig serial_config;
  serial_config.seed = 21;
  StaticSampler serial(env.model, env.encoder, serial_config);

  StaticSamplerConfig pooled_config;
  pooled_config.seed = 21;
  pooled_config.pool = &pool;
  StaticSampler pooled(env.model, env.encoder, pooled_config);

  std::vector<std::string> serial_out;
  std::vector<std::string> pooled_out;
  serial.generate(4096, serial_out);
  pooled.generate(4096, pooled_out);
  EXPECT_EQ(serial_out, pooled_out);
}

TEST(PooledSampler, DynamicOutputIsIdentical) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);

  auto make_run = [&](util::ThreadPool* sampler_pool) {
    DynamicSamplerConfig config;
    config.seed = 33;
    config.alpha = 0;
    config.batch_size = 512;
    config.pool = sampler_pool;
    DynamicSampler sampler(env.model, env.encoder, config);
    std::vector<std::string> out;
    sampler.generate(1024, out);
    // Feed matches so the mixture path (Eq. 14) is exercised too.
    sampler.on_match(3, out[3]);
    sampler.on_match(700, out[700]);
    sampler.generate(2048, out);
    return out;
  };

  EXPECT_EQ(make_run(nullptr), make_run(&pool));
}

TEST(SessionParallel, PooledDynamicSamplerRunMatchesSerialBitwise) {
  // DynamicSampler consumes match feedback, so the session must refuse to
  // pipeline generation even when asked — and with the pool only speeding
  // up inverse/decode/matching, the metrics must not change.
  const auto& env = tiny_trained_flow();
  const HashSetMatcher matcher(reachable_targets());
  util::ThreadPool pool(4);

  auto run = [&](bool parallel) {
    DynamicSamplerConfig sampler_config = table1_parameters(20000);
    sampler_config.seed = 66;
    sampler_config.batch_size = 1024;
    if (parallel) sampler_config.pool = &pool;
    DynamicSampler sampler(env.model, env.encoder, sampler_config);
    SessionConfig config;
    config.budget = 20000;
    config.chunk_size = 2048;
    if (parallel) {
      config.pool = &pool;
      config.pipeline_depth = 1;  // ignored: feedback generator
    }
    return run_session(sampler, matcher, config);
  };

  const RunResult serial = run(false);
  const RunResult parallel = run(true);
  ASSERT_GT(serial.final().matched, 0u);
  PF_EXPECT_SAME_RUN(serial, parallel);
}

// Stateless generator with a deterministic stream, used to pin the
// pipelining machinery itself (chunk schedule, pipelined call order)
// independently of the flow.
class CountingGenerator : public GuessGenerator {
 public:
  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back("g" + std::to_string(cursor_++));
    }
  }
  std::string name() const override { return "counting"; }

 private:
  std::size_t cursor_ = 0;
};

TEST(SessionParallel, PipelinedScheduleCoversExactBudget) {
  HashSetMatcher matcher({"g7", "g1000", "g54000", "nope"});
  util::ThreadPool pool(2);

  auto run = [&](bool pipelined) {
    CountingGenerator generator;
    SessionConfig config;
    config.budget = 54321;
    config.chunk_size = 1000;
    config.pool = pipelined ? &pool : nullptr;
    config.pipeline_depth = pipelined ? 1 : 0;
    return run_session(generator, matcher, config);
  };

  const RunResult serial = run(false);
  const RunResult parallel = run(true);
  EXPECT_EQ(parallel.final().guesses, 54321u);
  EXPECT_EQ(parallel.final().matched, 3u);
  PF_EXPECT_SAME_RUN(serial, parallel);
}

TEST(SessionParallel, PipelinedCustomCheckpointsStayExact) {
  HashSetMatcher matcher({"g5"});
  util::ThreadPool pool(2);

  auto run = [&](bool pipelined) {
    CountingGenerator generator;
    SessionConfig config;
    config.budget = 5000;
    config.chunk_size = 4096;  // larger than checkpoint spacing
    config.checkpoints = {10, 100, 2500, 5000};
    config.pool = pipelined ? &pool : nullptr;
    config.pipeline_depth = pipelined ? 1 : 0;
    return run_session(generator, matcher, config);
  };

  const RunResult serial = run(false);
  const RunResult parallel = run(true);
  ASSERT_EQ(parallel.checkpoints.size(), 4u);
  EXPECT_EQ(parallel.checkpoints[0].guesses, 10u);
  EXPECT_EQ(parallel.checkpoints[2].guesses, 2500u);
  PF_EXPECT_SAME_RUN(serial, parallel);
}

}  // namespace
}  // namespace passflow::guessing
