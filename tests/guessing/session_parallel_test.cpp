// Determinism of the pipelined AttackSession: the persistent producer at
// any depth, its tracker stage (a drain task on the pool) or inline fold
// (no pool), shard-parallel matching across the pool, and mid-pipeline
// save/resume must all reproduce the serial run's metrics exactly. Runs
// under the `thread_safety` CTest label (and its TSan job); the pooled
// samplers live in parallel_harness_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guessing/mapped_matcher.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "reference_harness.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

using passflow::testing::tiny_trained_flow;
using testing::MixingGenerator;
using testing::ReferenceConfig;
using testing::reference_run;
using testing::run_session;

std::vector<std::string> mixing_targets(std::size_t period = 1 << 14) {
  std::vector<std::string> targets;
  for (std::size_t v = 0; v < period; v += 7) {
    targets.push_back("g" + std::to_string(v));
  }
  return targets;
}

RunResult expected_mixing_run(const Matcher& matcher, std::size_t budget,
                              std::size_t chunk_size) {
  MixingGenerator generator;
  ReferenceConfig config;
  config.budget = budget;
  config.chunk_size = chunk_size;
  // The pipelined session never delivers feedback; MixingGenerator
  // ignores it, so the streams are identical either way.
  return reference_run(generator, matcher, config);
}

// Both tracker protocols: with a pool the tracker stage is a drain task on
// it; with pool = nullptr the consumer folds each chunk inline.
TEST(SessionParallel, EveryPipelineDepthMatchesSerialBitwise) {
  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(4);

  for (const UniqueTracking tracking :
       {UniqueTracking::kExact, UniqueTracking::kSketch}) {
    SessionConfig config;
    config.budget = 54321;
    config.chunk_size = 1000;
    config.unique_tracking = tracking;
    MixingGenerator serial_generator;
    const RunResult expected = run_session(serial_generator, matcher, config);
    ASSERT_GT(expected.final().matched, 0u);
    if (tracking == UniqueTracking::kExact) {
      PF_EXPECT_SAME_RUN(expected_mixing_run(matcher, 54321, 1000), expected);
    }

    for (util::ThreadPool* session_pool :
         {&pool, static_cast<util::ThreadPool*>(nullptr)}) {
      for (const std::size_t depth : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(::testing::Message()
                     << "tracking=" << static_cast<int>(tracking)
                     << " pool=" << (session_pool != nullptr)
                     << " depth=" << depth);
        MixingGenerator generator;
        config.pipeline_depth = depth;
        config.pool = session_pool;
        const RunResult actual = run_session(generator, matcher, config);
        PF_EXPECT_SAME_RUN(expected, actual);
      }
    }
  }
}

TEST(SessionParallel, DepthWithMappedMatcherAndShardedTracker) {
  const auto targets = mixing_targets();
  HashSetMatcher reference_matcher(targets);
  util::ThreadPool pool(4);
  const RunResult expected = expected_mixing_run(reference_matcher, 40000, 2048);

  // A 3-shard disk index: its contains_batch runs one pool task per shard
  // inside the pooled depth-4 pipeline, next to the shard-parallel
  // tracker fold.
  const std::string path = ::testing::TempDir() + "session_parallel.pfidx";
  IndexBuilderConfig index_config;
  index_config.num_shards = 3;
  IndexBuilder::build(targets, path, index_config);
  {
    MappedMatcher index(path);
    MixingGenerator generator;
    SessionConfig config;
    config.budget = 40000;
    config.chunk_size = 2048;
    config.pipeline_depth = 4;
    config.pool = &pool;
    AttackSession session(generator, index, config);
    session.run();
    PF_EXPECT_SAME_RUN(expected, session.result());
  }
  std::remove(path.c_str());
}

TEST(SessionParallel, PipelinedSkipsOnMatchForFeedbackFreeGenerators) {
  class Probe : public MixingGenerator {
   public:
    void on_match(std::size_t, const std::string&) override { ++calls; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher(mixing_targets());
  Probe generator;
  SessionConfig config;
  config.budget = 20000;
  config.chunk_size = 1000;
  config.pipeline_depth = 2;
  AttackSession session(generator, matcher, config);
  session.run();
  EXPECT_GT(session.result().final().matched, 0u);
  EXPECT_EQ(generator.calls, 0u);
}

TEST(SessionParallel, FeedbackGeneratorFallsBackToSerial) {
  class FeedbackProbe : public MixingGenerator {
   public:
    void on_match(std::size_t, const std::string&) override { ++calls; }
    bool uses_match_feedback() const override { return true; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher(mixing_targets());
  const RunResult expected = expected_mixing_run(matcher, 20000, 1000);

  FeedbackProbe generator;
  SessionConfig config;
  config.budget = 20000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;  // must be ignored
  AttackSession session(generator, matcher, config);
  session.run();
  EXPECT_GT(generator.calls, 0u);  // serial path delivers feedback
  PF_EXPECT_SAME_RUN(expected, session.result());
}

TEST(SessionParallel, SaveMidPipelineResumeEqualsUninterrupted) {
  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(2);
  const RunResult expected = expected_mixing_run(matcher, 60000, 1000);

  // Freeze a depth-4 session mid-run: chunks already generated ahead of
  // consumption must be carried by the state stream.
  MixingGenerator first_gen;
  SessionConfig config;
  config.budget = 60000;
  config.chunk_size = 1000;
  config.pipeline_depth = 4;
  config.pool = &pool;
  AttackSession first(first_gen, matcher, config);
  first.run_until(29000);
  std::stringstream frozen;
  first.save_state(frozen);

  // Thaw into a different pipeline shape (depth 2): metrics must not care.
  MixingGenerator second_gen;
  SessionConfig resumed_config = config;
  resumed_config.pipeline_depth = 2;
  AttackSession second(second_gen, matcher, resumed_config);
  second.load_state(frozen);
  second.run();
  PF_EXPECT_SAME_RUN(expected, second.result());
}

TEST(SessionParallel, PipelinedSaveResumesIntoSerialSession) {
  HashSetMatcher matcher(mixing_targets());
  const RunResult expected = expected_mixing_run(matcher, 30000, 1000);

  MixingGenerator first_gen;
  SessionConfig config;
  config.budget = 30000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;
  AttackSession first(first_gen, matcher, config);
  first.run_until(4000);
  std::stringstream frozen;
  first.save_state(frozen);

  MixingGenerator second_gen;
  SessionConfig serial_config = config;
  serial_config.pipeline_depth = 0;
  AttackSession second(second_gen, matcher, serial_config);
  second.load_state(frozen);
  second.run();
  PF_EXPECT_SAME_RUN(expected, second.result());
}

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

TEST(SessionParallel, StaticSamplerPipelinedMatchesSerial) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);
  const HashSetMatcher matcher(reachable_targets());

  auto run = [&](std::size_t depth, util::ThreadPool* sampler_pool) {
    StaticSamplerConfig sampler_config;
    sampler_config.seed = 55;
    sampler_config.batch_size = 1024;
    sampler_config.pool = sampler_pool;
    StaticSampler sampler(env.model, env.encoder, sampler_config);
    SessionConfig config;
    config.budget = 20000;
    config.chunk_size = 2048;
    config.pipeline_depth = depth;
    config.pool = sampler_pool;
    AttackSession session(sampler, matcher, config);
    session.run();
    return session.result();
  };

  const RunResult serial = run(0, nullptr);
  ASSERT_GT(serial.final().matched, 0u);
  for (const std::size_t depth : {1u, 4u}) {
    const RunResult pipelined = run(depth, &pool);
    PF_EXPECT_SAME_RUN(serial, pipelined);
  }
}

TEST(SessionParallel, StaticSamplerSaveResumeMidPipeline) {
  const auto& env = tiny_trained_flow();
  HashSetMatcher matcher({"unlikely"});

  auto make_session = [&](StaticSampler& sampler) {
    SessionConfig config;
    config.budget = 16000;
    config.chunk_size = 1024;
    config.pipeline_depth = 3;
    return std::make_unique<AttackSession>(sampler, matcher, config);
  };

  StaticSamplerConfig sampler_config;
  sampler_config.seed = 77;
  StaticSampler whole_sampler(env.model, env.encoder, sampler_config);
  auto whole = make_session(whole_sampler);
  whole->run();
  const RunResult expected = whole->result();

  StaticSampler first_sampler(env.model, env.encoder, sampler_config);
  auto first = make_session(first_sampler);
  first->run_until(6000);
  std::stringstream frozen;
  first->save_state(frozen);

  StaticSampler second_sampler(env.model, env.encoder, sampler_config);
  auto second = make_session(second_sampler);
  second->load_state(frozen);
  second->run();
  PF_EXPECT_SAME_RUN(expected, second->result());
}

TEST(SessionParallel, ConcurrentSessionsShareOneMatcher) {
  // Two pipelined sessions attack the same shared matcher from two
  // threads; each must reproduce its own serial reference exactly.
  auto matcher = std::make_shared<const HashSetMatcher>(mixing_targets());
  const RunResult expected = expected_mixing_run(*matcher, 30000, 1000);

  auto attack = [&](RunResult& out) {
    MixingGenerator generator;
    SessionConfig config;
    config.budget = 30000;
    config.chunk_size = 1000;
    config.pipeline_depth = 4;
    AttackSession session(generator, MatcherRef(matcher), config);
    session.run();
    out = session.result();
  };

  RunResult a;
  RunResult b;
  std::thread ta(attack, std::ref(a));
  std::thread tb(attack, std::ref(b));
  ta.join();
  tb.join();
  PF_EXPECT_SAME_RUN(expected, a);
  PF_EXPECT_SAME_RUN(expected, b);
}

TEST(SessionParallel, DestructorJoinsMidRunPipeline) {
  HashSetMatcher matcher(mixing_targets());
  MixingGenerator generator;
  SessionConfig config;
  config.budget = 500000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;
  {
    AttackSession session(generator, matcher, config);
    session.run_until(5000);
    // Drop the session with a full pipeline in flight.
  }
  SUCCEED();
}

TEST(SessionParallel, ProducerExceptionSurfacesInStep) {
  class Exploding : public MixingGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      if (++calls > 3) throw std::runtime_error("generator blew up");
      MixingGenerator::generate(n, out);
    }
    std::string name() const override { return "exploding"; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher({});
  Exploding generator;
  SessionConfig config;
  config.budget = 100000;
  config.chunk_size = 1000;
  config.pipeline_depth = 2;
  AttackSession session(generator, matcher, config);
  EXPECT_THROW(
      {
        while (session.step()) {
        }
      },
      std::runtime_error);
}

// A pipeline error must leave the session retryable: a step() retried
// after the throw restarts the pipeline with the consumed-but-unfolded
// tracker backlog re-seeded (tracked_chunks_ short by the backlog, drain
// re-spawned, erroring chunk requeued) — before the fix the leftover
// chunks skewed the tracked/consumed accounting and the next checkpoint
// sync barrier deadlocked. The generator throws *before* touching its
// stream state, so every retry replays the identical stream and the final
// metrics must still be bitwise equal to the serial reference.
TEST(SessionParallel, PipelineErrorRetryReplaysStreamBitwise) {
  // Throws on every 5th generate() call, stream state untouched.
  class ThrowEveryFifth : public GuessGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      if (++calls_ % 5 == 0) {
        throw std::runtime_error("transient generator failure");
      }
      inner_.generate(n, out);
    }
    std::string name() const override { return "throw-every-5th"; }

   private:
    MixingGenerator inner_;
    int calls_ = 0;
  };

  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(2);

  SessionConfig config;
  config.budget = 40000;
  config.chunk_size = 500;  // 80 chunks => ~16 error/restart cycles
  config.checkpoints = {5000, 10000, 20000, 30000, 40000};
  config.pipeline_depth = 3;
  config.pool = &pool;  // tracker stage = pool drain task (the fixed path)

  ThrowEveryFifth generator;
  AttackSession session(generator, matcher, config);
  std::size_t errors = 0;
  while (!session.finished()) {
    try {
      if (!session.step()) break;
    } catch (const std::runtime_error&) {
      ++errors;  // surfaced once per failed generate; session stays usable
    }
  }
  EXPECT_GE(errors, 10u);
  EXPECT_TRUE(session.finished());

  MixingGenerator reference_generator;
  ReferenceConfig reference;
  reference.budget = config.budget;
  reference.chunk_size = config.chunk_size;
  reference.checkpoints = config.checkpoints;
  PF_EXPECT_SAME_RUN(
      reference_run(reference_generator, matcher, reference),
      session.result());
}

// Same retry machinery, but the error comes from the matcher on the
// producer thread. The generator's stream had already advanced past the
// dropped chunk, so bitwise equality is off the table — what must hold is
// the accounting: the session completes its exact budget, every checkpoint
// lands, and nothing deadlocks on the tracker barrier.
TEST(SessionParallel, PipelineErrorFromMatcherKeepsAccountingConsistent) {
  class ThrowingMatcher : public Matcher {
   public:
    explicit ThrowingMatcher(const std::vector<std::string>& targets)
        : inner_(targets) {}
    bool contains(const std::string& password) const override {
      return inner_.contains(password);
    }
    std::size_t test_set_size() const override {
      return inner_.test_set_size();
    }
    std::string name() const override { return "throwing-matcher"; }
    void contains_batch(const std::vector<std::string>& batch,
                        util::ThreadPool* pool,
                        std::vector<char>& out) const override {
      if (++calls_ % 7 == 0) {
        throw std::runtime_error("transient matcher failure");
      }
      inner_.contains_batch(batch, pool, out);
    }

   private:
    HashSetMatcher inner_;
    mutable std::atomic<int> calls_{0};
  };

  ThrowingMatcher matcher(mixing_targets());
  util::ThreadPool pool(2);

  SessionConfig config;
  config.budget = 30000;
  config.chunk_size = 500;
  config.checkpoints = {10000, 20000, 30000};
  config.pipeline_depth = 2;
  config.pool = &pool;

  MixingGenerator generator;
  AttackSession session(generator, matcher, config);
  std::size_t errors = 0;
  while (!session.finished()) {
    try {
      if (!session.step()) break;
    } catch (const std::runtime_error&) {
      ++errors;
    }
  }
  EXPECT_GE(errors, 1u);
  EXPECT_TRUE(session.finished());

  const RunResult result = session.result();
  EXPECT_EQ(result.final().guesses, 30000u);
  ASSERT_EQ(result.checkpoints.size(), 3u);
  for (const Checkpoint& cp : result.checkpoints) {
    // Unique can never exceed produced, and the tracker folded every
    // consumed chunk exactly once — no double-folds from requeued chunks.
    EXPECT_LE(cp.unique, cp.guesses);
    EXPECT_GT(cp.unique, 0u);
  }
}

// A thawed chunk is matched on the consumer when a resumed session
// reaches it. A matcher error there must leave the chunk queued, still
// owed to the tracker and the bookkeeping, so the retried step consumes it
// and the run still equals the serial one: pipelined with a pool (tracker
// drain) and without one (inline fold), and serial.
TEST(SessionParallel, ThawedChunkMatchErrorLeavesTheChunkQueued) {
  // MixingGenerator that publishes how far its stream has run.
  class CountedMixingGenerator : public MixingGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      MixingGenerator::generate(n, out);
      generated += n;
    }
    std::atomic<std::size_t> generated{0};
  };
  // Throws once, on the first probe of one given batch.
  class ThrowOnceMatcher : public Matcher {
   public:
    ThrowOnceMatcher(const std::vector<std::string>& targets,
                     std::vector<std::string> poison)
        : inner_(targets), poison_(std::move(poison)) {}
    bool contains(const std::string& password) const override {
      return inner_.contains(password);
    }
    std::size_t test_set_size() const override {
      return inner_.test_set_size();
    }
    std::string name() const override { return "throw-once"; }
    void contains_batch(const std::vector<std::string>& batch,
                        util::ThreadPool* pool,
                        std::vector<char>& out) const override {
      if (batch == poison_ && !thrown_.exchange(true)) {
        throw std::runtime_error("transient matcher failure");
      }
      inner_.contains_batch(batch, pool, out);
    }

   private:
    HashSetMatcher inner_;
    std::vector<std::string> poison_;
    mutable std::atomic<bool> thrown_{false};
  };

  const HashSetMatcher matcher(mixing_targets());
  const RunResult expected = expected_mixing_run(matcher, 30000, 1000);
  util::ThreadPool pool(2);

  SessionConfig config;
  config.budget = 30000;
  config.chunk_size = 1000;
  config.pipeline_depth = 4;
  config.pool = &pool;
  CountedMixingGenerator first_gen;
  AttackSession first(first_gen, matcher, config);
  first.run_until(10000);
  // Let the producer run ahead, so the state carries unmatched chunks.
  while (first_gen.generated < 11000) std::this_thread::yield();
  std::stringstream frozen;
  first.save_state(frozen);
  const std::string state = frozen.str();

  // The first thawed chunk: guesses 10000..10999 of the stream.
  MixingGenerator stream;
  std::vector<std::string> poison;
  stream.generate(10000, poison);
  poison.clear();
  stream.generate(1000, poison);

  for (const auto& [depth, session_pool] :
       {std::pair<std::size_t, util::ThreadPool*>{4, &pool},
        {4, nullptr},
        {0, nullptr}}) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth
                                      << " pool=" << (session_pool != nullptr));
    const ThrowOnceMatcher throwing(mixing_targets(), poison);
    SessionConfig resumed_config = config;
    resumed_config.pipeline_depth = depth;
    resumed_config.pool = session_pool;
    MixingGenerator second_gen;
    AttackSession second(second_gen, throwing, resumed_config);
    std::stringstream thawed(state);
    second.load_state(thawed);
    EXPECT_THROW(second.step(), std::runtime_error);
    second.run();
    PF_EXPECT_SAME_RUN(expected, second.result());
  }
}

}  // namespace
}  // namespace passflow::guessing
