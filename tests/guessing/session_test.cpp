// AttackSession equivalence and behavior suite (serial paths): the session
// must reproduce the seed guessing loop's metrics bitwise, the sketch
// tracker must land within 2% of exact on a million-guess stream, and
// save/resume must be indistinguishable from an uninterrupted run.
// The scripted-stream bookkeeping cases live in harness_test.cpp, the
// pipelined (multi-threaded) paths in session_parallel_test.cpp.
#include "guessing/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "reference_harness.hpp"

namespace passflow::guessing {
namespace {

using testing::MixingGenerator;
using testing::ReferenceConfig;
using testing::reference_run;

// Target set the MixingGenerator actually hits: every 7th distinct value.
std::vector<std::string> mixing_targets(std::size_t period = 1 << 14) {
  MixingGenerator generator(period);
  std::vector<std::string> targets;
  for (std::size_t v = 0; v < period; v += 7) {
    targets.push_back("g" + std::to_string(v));
  }
  return targets;
}

SessionConfig base_config(std::size_t budget) {
  SessionConfig config;
  config.budget = budget;
  config.chunk_size = 1000;
  return config;
}

TEST(AttackSession, SerialRunMatchesReferenceBitwise) {
  HashSetMatcher matcher(mixing_targets());

  MixingGenerator ref_gen;
  ReferenceConfig ref_config;
  ref_config.budget = 54321;
  ref_config.chunk_size = 1000;
  const RunResult expected = reference_run(ref_gen, matcher, ref_config);

  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(54321));
  session.run();
  const RunResult actual = session.result();

  ASSERT_GT(expected.final().matched, 0u);
  PF_EXPECT_SAME_RUN(expected, actual);
}

TEST(AttackSession, CustomCheckpointsAndNoTrackingMatchReference) {
  HashSetMatcher matcher(mixing_targets());

  ReferenceConfig ref_config;
  ref_config.budget = 5000;
  ref_config.chunk_size = 4096;  // larger than checkpoint spacing
  ref_config.checkpoints = {10, 100, 2500, 5000};
  ref_config.track_unique = false;
  MixingGenerator ref_gen;
  const RunResult expected = reference_run(ref_gen, matcher, ref_config);

  SessionConfig config;
  config.budget = 5000;
  config.chunk_size = 4096;
  config.checkpoints = {2500, 10, 5000, 100};  // session sorts
  config.unique_tracking = UniqueTracking::kOff;
  MixingGenerator gen;
  AttackSession session(gen, matcher, config);
  session.run();

  const RunResult actual = session.result();
  ASSERT_EQ(actual.checkpoints.size(), 4u);
  EXPECT_EQ(actual.checkpoints[0].guesses, 10u);
  EXPECT_EQ(actual.final().unique, 0u);
  PF_EXPECT_SAME_RUN(expected, actual);
}

TEST(AttackSession, StepAdvancesOneChunkAtATime) {
  HashSetMatcher matcher({"nothing"});
  MixingGenerator gen;
  SessionConfig config;
  config.budget = 3500;
  config.chunk_size = 1000;
  config.checkpoints = {3500};
  AttackSession session(gen, matcher, config);

  EXPECT_TRUE(session.step());
  EXPECT_EQ(session.stats().produced, 1000u);
  EXPECT_TRUE(session.step());
  EXPECT_EQ(session.stats().produced, 2000u);
  EXPECT_TRUE(session.step());
  EXPECT_TRUE(session.step());  // final short chunk
  EXPECT_EQ(session.stats().produced, 3500u);
  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.step());  // exhausted: no-op
  EXPECT_EQ(session.stats().produced, 3500u);
}

TEST(AttackSession, RunUntilStopsAtTarget) {
  HashSetMatcher matcher({"nothing"});
  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(100000));

  const SessionStats& stats = session.run_until(30000);
  EXPECT_GE(stats.produced, 30000u);
  EXPECT_LT(stats.produced, 100000u);
  EXPECT_FALSE(stats.finished);

  session.run();
  EXPECT_EQ(session.stats().produced, 100000u);
  EXPECT_TRUE(session.stats().finished);
}

TEST(AttackSession, MidRunResultAppendsPartialCheckpoint) {
  HashSetMatcher matcher(mixing_targets());
  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(100000));
  session.run_until(5000);

  const RunResult mid = session.result();
  EXPECT_EQ(mid.final().guesses, session.stats().produced);
  // The partial snapshot must agree with a reference run truncated at the
  // same produced count.
  MixingGenerator ref_gen;
  ReferenceConfig ref_config;
  ref_config.budget = mid.final().guesses;
  ref_config.chunk_size = 1000;
  const RunResult expected = reference_run(ref_gen, matcher, ref_config);
  EXPECT_EQ(mid.final().unique, expected.final().unique);
  EXPECT_EQ(mid.final().matched, expected.final().matched);
}

TEST(AttackSession, StatsTrackProgressMonotonically) {
  HashSetMatcher matcher(mixing_targets());
  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(20000));
  std::size_t last_produced = 0;
  std::size_t last_matched = 0;
  while (session.step()) {
    const SessionStats& stats = session.stats();
    EXPECT_GT(stats.produced, last_produced);
    EXPECT_GE(stats.matched, last_matched);
    last_produced = stats.produced;
    last_matched = stats.matched;
  }
  EXPECT_GT(session.stats().guesses_per_second, 0.0);
}

// ---- feedback generators (serial path delivers on_match) -----------------

class FeedbackProbe : public MixingGenerator {
 public:
  void on_match(std::size_t index_in_batch,
                const std::string& password) override {
    match_indices.push_back(index_in_batch);
    match_passwords.push_back(password);
  }
  bool uses_match_feedback() const override { return true; }
  std::string name() const override { return "feedback-probe"; }

  std::vector<std::size_t> match_indices;
  std::vector<std::string> match_passwords;
};

TEST(AttackSession, FeedbackGeneratorReceivesOnMatchSerially) {
  HashSetMatcher matcher(mixing_targets());

  FeedbackProbe ref_gen;
  ReferenceConfig ref_config;
  ref_config.budget = 10000;
  ref_config.chunk_size = 1000;
  const RunResult expected = reference_run(ref_gen, matcher, ref_config);

  FeedbackProbe gen;
  AttackSession session(gen, matcher, base_config(10000));
  session.run();

  ASSERT_FALSE(ref_gen.match_passwords.empty());
  EXPECT_EQ(gen.match_indices, ref_gen.match_indices);
  EXPECT_EQ(gen.match_passwords, ref_gen.match_passwords);
  PF_EXPECT_SAME_RUN(expected, session.result());
}

// ---- sketch unique tracking ----------------------------------------------

TEST(AttackSession, SketchUniqueWithinTwoPercentOnMillionGuesses) {
  // 10^6 guesses over a duplicated stream (~2^17 distinct values): the
  // sketch estimate at every checkpoint must stay within 2% of the exact
  // tracker's count on the identical stream.
  HashSetMatcher matcher({"unreachable"});

  SessionConfig exact_config = base_config(1000000);
  exact_config.chunk_size = 16384;
  MixingGenerator exact_gen(1 << 17);
  AttackSession exact_session(exact_gen, matcher, exact_config);
  exact_session.run();
  const RunResult exact = exact_session.result();

  SessionConfig sketch_config = exact_config;
  sketch_config.unique_tracking = UniqueTracking::kSketch;
  sketch_config.sketch_precision_bits = 14;
  MixingGenerator sketch_gen(1 << 17);
  AttackSession sketch_session(sketch_gen, matcher, sketch_config);
  sketch_session.run();
  const RunResult sketch = sketch_session.result();

  ASSERT_EQ(exact.checkpoints.size(), sketch.checkpoints.size());
  for (std::size_t i = 0; i < exact.checkpoints.size(); ++i) {
    const double exact_unique =
        static_cast<double>(exact.checkpoints[i].unique);
    const double sketch_unique =
        static_cast<double>(sketch.checkpoints[i].unique);
    EXPECT_NEAR(sketch_unique, exact_unique, 0.02 * exact_unique)
        << "at checkpoint " << exact.checkpoints[i].guesses;
  }
}

TEST(AttackSession, ExactShardedTrackerCountsIdentically) {
  HashSetMatcher matcher(mixing_targets());

  MixingGenerator ref_gen;
  ReferenceConfig ref_config;
  ref_config.budget = 30000;
  ref_config.chunk_size = 1000;
  const RunResult expected = reference_run(ref_gen, matcher, ref_config);

  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(30000));
  session.run();
  PF_EXPECT_SAME_RUN(expected, session.result());
}

// ---- save / resume -------------------------------------------------------

TEST(AttackSession, SaveResumeEqualsUninterruptedRun) {
  HashSetMatcher matcher(mixing_targets());

  MixingGenerator whole_gen;
  AttackSession whole(whole_gen, matcher, base_config(50000));
  whole.run();
  const RunResult expected = whole.result();

  MixingGenerator first_gen;
  AttackSession first(first_gen, matcher, base_config(50000));
  first.run_until(23000);
  std::stringstream frozen;
  first.save_state(frozen);

  MixingGenerator second_gen;
  AttackSession second(second_gen, matcher, base_config(50000));
  second.load_state(frozen);
  EXPECT_EQ(second.stats().produced, first.stats().produced);
  second.run();

  PF_EXPECT_SAME_RUN(expected, second.result());
}

TEST(AttackSession, SavedSessionKeepsRunningAfterSave) {
  HashSetMatcher matcher(mixing_targets());

  MixingGenerator whole_gen;
  AttackSession whole(whole_gen, matcher, base_config(40000));
  whole.run();
  const RunResult expected = whole.result();

  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(40000));
  session.run_until(11000);
  std::stringstream frozen;
  session.save_state(frozen);  // snapshot, then keep going
  session.run();
  PF_EXPECT_SAME_RUN(expected, session.result());
}

TEST(AttackSession, SaveResumeWithSketchTracker) {
  HashSetMatcher matcher(mixing_targets());

  SessionConfig config = base_config(40000);
  config.unique_tracking = UniqueTracking::kSketch;

  MixingGenerator whole_gen;
  AttackSession whole(whole_gen, matcher, config);
  whole.run();
  const RunResult expected = whole.result();

  MixingGenerator first_gen;
  AttackSession first(first_gen, matcher, config);
  first.run_until(17000);
  std::stringstream frozen;
  first.save_state(frozen);

  MixingGenerator second_gen;
  AttackSession second(second_gen, matcher, config);
  second.load_state(frozen);
  second.run();
  PF_EXPECT_SAME_RUN(expected, second.result());
}

TEST(AttackSession, SaveStateRequiresSerializableGenerator) {
  class Opaque : public GuessGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      for (std::size_t i = 0; i < n; ++i) out.push_back("x");
    }
    std::string name() const override { return "opaque"; }
  };
  HashSetMatcher matcher({});
  Opaque gen;
  AttackSession session(gen, matcher, base_config(1000));
  session.run_until(500);
  std::stringstream out;
  EXPECT_THROW(session.save_state(out), std::logic_error);
}

TEST(AttackSession, LoadStateValidatesRunShape) {
  HashSetMatcher matcher({});
  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(10000));
  session.run_until(3000);
  std::stringstream frozen;
  session.save_state(frozen);

  MixingGenerator other_gen;
  AttackSession mismatched(other_gen, matcher, base_config(20000));
  EXPECT_THROW(mismatched.load_state(frozen), std::runtime_error);

  MixingGenerator late_gen;
  AttackSession already_running(late_gen, matcher, base_config(10000));
  already_running.run_until(1000);
  frozen.clear();
  frozen.seekg(0);
  EXPECT_THROW(already_running.load_state(frozen), std::logic_error);
}

TEST(AttackSession, LoadStateRejectsDifferentGenerator) {
  class RenamedMixing : public MixingGenerator {
   public:
    std::string name() const override { return "other-strategy"; }
  };
  HashSetMatcher matcher({});
  MixingGenerator gen;
  AttackSession session(gen, matcher, base_config(10000));
  session.run_until(3000);
  std::stringstream frozen;
  session.save_state(frozen);

  RenamedMixing other_gen;
  AttackSession other(other_gen, matcher, base_config(10000));
  EXPECT_THROW(other.load_state(frozen), std::runtime_error);
}

TEST(AttackSession, SharedMatcherOwnershipWorks) {
  auto matcher = std::make_shared<const HashSetMatcher>(mixing_targets());
  MixingGenerator gen;
  SessionConfig config = base_config(10000);
  AttackSession session(gen, MatcherRef(matcher), config);
  session.run();
  EXPECT_GT(session.result().final().matched, 0u);
}

TEST(AttackSession, ZeroChunkSizeRejected) {
  HashSetMatcher matcher({});
  MixingGenerator gen;
  SessionConfig config;
  config.chunk_size = 0;
  EXPECT_THROW(AttackSession(gen, matcher, config), std::invalid_argument);
}

}  // namespace
}  // namespace passflow::guessing
