// AttackScheduler concurrency suite, run under the `thread_safety` CTest
// label (and its TSan/ASan jobs): multi-driver run() over a shared
// matcher and one pool must reproduce every scenario's solo metrics
// bitwise; scenarios added/paused/resumed/removed mid-run must neither
// race nor corrupt anyone else's run; and the fleet-wide merged sketch
// must equal the sketch of the union of all streams exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guessing/scheduler.hpp"
#include "reference_harness.hpp"
#include "util/cardinality_sketch.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

using testing::MixingGenerator;
using testing::ReferenceConfig;
using testing::reference_run;

std::vector<std::string> mixing_targets(std::size_t period = 1 << 14) {
  std::vector<std::string> targets;
  for (std::size_t v = 0; v < period; v += 7) {
    targets.push_back("g" + std::to_string(v));
  }
  return targets;
}

SessionConfig chunked_config(std::size_t budget, std::size_t chunk_size) {
  SessionConfig config;
  config.budget = budget;
  config.chunk_size = chunk_size;
  config.checkpoints = {budget};
  return config;
}

RunResult expected_run(const Matcher& matcher, std::size_t period,
                       std::size_t budget, std::size_t chunk_size) {
  MixingGenerator generator(period);
  ReferenceConfig config;
  config.budget = budget;
  config.chunk_size = chunk_size;
  config.checkpoints = {budget};
  return reference_run(generator, matcher, config);
}

// Four concurrent drivers, four scenarios with pipelined sessions, one
// shared HashSetMatcher, one pool: every scenario must land exactly on its
// solo metrics no matter how slices interleaved.
TEST(SchedulerParallel, ConcurrentRunMatchesSoloMetricsBitwise) {
  const auto targets = mixing_targets();
  auto matcher = std::make_shared<const HashSetMatcher>(targets);
  const HashSetMatcher& reference_matcher = *matcher;
  util::ThreadPool pool(4);

  SchedulerConfig fleet;
  fleet.pool = &pool;
  fleet.slice_chunks = 2;
  fleet.max_concurrent = 4;
  AttackScheduler scheduler(fleet);

  const std::size_t periods[] = {1 << 14, 1 << 13, 1 << 12, 1 << 11};
  std::vector<std::unique_ptr<MixingGenerator>> generators;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    generators.push_back(std::make_unique<MixingGenerator>(periods[i]));
    ScenarioOptions options;
    options.session = chunked_config(30000, 1000);
    options.session.pipeline_depth = (i % 2 == 0) ? 2 : 0;  // mixed modes
    ids.push_back(
        scheduler.add_scenario(*generators[i], MatcherRef(matcher), options));
  }

  scheduler.run();
  EXPECT_TRUE(scheduler.finished());

  for (std::size_t i = 0; i < 4; ++i) {
    const RunResult expected =
        expected_run(reference_matcher, periods[i], 30000, 1000);
    ASSERT_GT(expected.final().matched, 0u);
    const RunResult actual = scheduler.result(ids[i]);
    PF_EXPECT_SAME_RUN(expected, actual);
  }
}

// Scenarios added, paused, resumed and removed from another thread while
// run() is live. The test is scheduling-robust: whatever work run() did
// not get to (e.g. everything finished before the late add) is completed
// by a final run() — semantically a plain continuation — so the end-state
// assertions are deterministic even though the interleaving is not.
TEST(SchedulerParallel, MidRunAddRemovePauseResume) {
  const auto targets = mixing_targets();
  auto matcher = std::make_shared<const HashSetMatcher>(targets);
  const HashSetMatcher& reference_matcher = *matcher;
  util::ThreadPool pool(4);

  SchedulerConfig fleet;
  fleet.pool = &pool;
  fleet.slice_chunks = 1;
  fleet.max_concurrent = 2;
  AttackScheduler scheduler(fleet);

  MixingGenerator pipelined_generator(1 << 14);
  MixingGenerator removed_generator(1 << 13);
  MixingGenerator late_generator(1 << 12);

  ScenarioOptions pipelined;
  pipelined.session = chunked_config(60000, 500);
  pipelined.session.pipeline_depth = 2;
  const std::size_t pipelined_id =
      scheduler.add_scenario(pipelined_generator, MatcherRef(matcher),
                             pipelined);

  ScenarioOptions removable;
  removable.session = chunked_config(60000, 500);
  const std::size_t removed_id = scheduler.add_scenario(
      removed_generator, MatcherRef(matcher), removable);

  std::thread runner([&] { scheduler.run(); });

  ScenarioOptions late;
  late.session = chunked_config(20000, 500);
  const std::size_t late_id =
      scheduler.add_scenario(late_generator, MatcherRef(matcher), late);

  scheduler.pause_scenario(pipelined_id);
  const SchedulerStats mid = scheduler.aggregate();  // quiesce while live
  EXPECT_EQ(mid.scenarios, 3u);
  scheduler.resume_scenario(pipelined_id);

  const RunResult partial = scheduler.remove_scenario(removed_id);
  EXPECT_EQ(partial.final().guesses % 500u, 0u);
  EXPECT_LE(partial.final().guesses, 60000u);

  runner.join();
  scheduler.run();  // mop up anything the live run missed (no-op if none)
  EXPECT_TRUE(scheduler.finished());

  // The removed scenario's partial result is a prefix of its solo run.
  if (partial.final().guesses > 0) {
    MixingGenerator solo_generator(1 << 13);
    AttackSession solo(solo_generator, reference_matcher,
                       chunked_config(60000, 500));
    solo.run_until(partial.final().guesses);
    PF_EXPECT_SAME_RUN(solo.result(), partial);
  }

  // The survivors still land exactly on their solo metrics.
  PF_EXPECT_SAME_RUN(expected_run(reference_matcher, 1 << 14, 60000, 500),
                     scheduler.result(pipelined_id));
  PF_EXPECT_SAME_RUN(expected_run(reference_matcher, 1 << 12, 20000, 500),
                     scheduler.result(late_id));
}

// The fleet-wide union sketch must equal — register for register, so
// estimate for estimate — one sketch fed every scenario's stream, for
// sketch-mode sessions, exact-mode sessions, and a mix of both.
TEST(SchedulerParallel, MergedSketchEqualsUnionOfStreams) {
  const auto targets = mixing_targets();
  HashSetMatcher matcher(targets);
  util::ThreadPool pool(2);

  const std::size_t periods[] = {1 << 13, 1 << 12, 1 << 11};
  const std::size_t budgets[] = {20000, 15000, 10000};
  const unsigned precision = 12;

  util::CardinalitySketch reference(precision);
  for (std::size_t i = 0; i < 3; ++i) {
    MixingGenerator generator(periods[i]);
    for (std::size_t g = 0; g < budgets[i]; ++g) {
      reference.add(generator.value_at(g));
    }
  }

  for (const bool mixed : {false, true}) {
    SchedulerConfig fleet;
    fleet.pool = &pool;
    fleet.max_concurrent = 3;
    fleet.unique_union_precision_bits = precision;
    AttackScheduler scheduler(fleet);
    std::vector<std::unique_ptr<MixingGenerator>> generators;
    for (std::size_t i = 0; i < 3; ++i) {
      generators.push_back(std::make_unique<MixingGenerator>(periods[i]));
      ScenarioOptions options;
      options.session = chunked_config(budgets[i], 1000);
      options.session.pipeline_depth = (i == 2) ? 2 : 0;
      // mixed: one exact tracker among the sketches — exact keys re-add
      // into the union through the same hash, so the union stays exact.
      if (mixed && i == 1) {
        options.session.unique_tracking = UniqueTracking::kExact;
      } else {
        options.session.unique_tracking = UniqueTracking::kSketch;
        options.session.sketch_precision_bits = precision;
      }
      scheduler.add_scenario(*generators[i], matcher, options);
    }
    scheduler.run();

    const SchedulerStats stats = scheduler.aggregate();
    ASSERT_TRUE(stats.unique_union_valid);
    EXPECT_EQ(stats.unique_union, reference.estimate());
  }
}

// Hammer aggregate() from a second thread while drivers run: quiesce must
// neither race (TSan) nor deadlock, and totals must be monotone-plausible.
TEST(SchedulerParallel, AggregateWhileRunningIsSafe) {
  const auto targets = mixing_targets();
  HashSetMatcher matcher(targets);
  util::ThreadPool pool(2);

  SchedulerConfig fleet;
  fleet.pool = &pool;
  fleet.slice_chunks = 1;
  fleet.max_concurrent = 2;
  AttackScheduler scheduler(fleet);

  MixingGenerator a(1 << 14), b(1 << 13);
  ScenarioOptions options;
  options.session = chunked_config(40000, 500);
  options.session.pipeline_depth = 2;
  scheduler.add_scenario(a, matcher, options);
  scheduler.add_scenario(b, matcher, options);

  std::thread runner([&] { scheduler.run(); });
  std::size_t last_produced = 0;
  for (int i = 0; i < 20; ++i) {
    const SchedulerStats stats = scheduler.aggregate();
    EXPECT_GE(stats.produced, last_produced);
    last_produced = stats.produced;
  }
  runner.join();
  EXPECT_EQ(scheduler.aggregate().produced, 2u * 40000u);
}

// Two threads hammer aggregate() concurrently (the quiesce gate is a
// counter — before the fix the first finisher dropped the gate under the
// second's merge) while a third churns add/pause/resume mid-run. TSan
// guards the races; the asserts guard liveness and monotonicity.
TEST(SchedulerParallel, ConcurrentAggregatesComposeUnderChurn) {
  const auto targets = mixing_targets();
  HashSetMatcher matcher(targets);
  util::ThreadPool pool(2);

  SchedulerConfig fleet;
  fleet.pool = &pool;
  fleet.slice_chunks = 1;
  fleet.max_concurrent = 2;
  AttackScheduler scheduler(fleet);

  MixingGenerator a(1 << 14), b(1 << 13), late_generator(1 << 12);
  ScenarioOptions options;
  options.session = chunked_config(40000, 500);
  options.session.pipeline_depth = 2;
  const std::size_t a_id = scheduler.add_scenario(a, matcher, options);
  scheduler.add_scenario(b, matcher, options);

  std::thread runner([&] { scheduler.run(); });

  std::thread aggregators[2];
  for (auto& aggregator : aggregators) {
    aggregator = std::thread([&] {
      std::size_t last_produced = 0;
      for (int i = 0; i < 15; ++i) {
        const SchedulerStats stats = scheduler.aggregate();
        EXPECT_GE(stats.produced, last_produced);
        EXPECT_LE(stats.parked_drivers, 2u);
        last_produced = stats.produced;
      }
    });
  }

  ScenarioOptions late;
  late.session = chunked_config(20000, 500);
  const std::size_t late_id =
      scheduler.add_scenario(late_generator, matcher, late);
  scheduler.pause_scenario(a_id);
  scheduler.resume_scenario(a_id);

  for (auto& aggregator : aggregators) aggregator.join();
  runner.join();
  scheduler.run();  // mop up anything the live run missed (no-op if none)
  EXPECT_TRUE(scheduler.finished());

  EXPECT_EQ(scheduler.aggregate().produced, 2u * 40000u + 20000u);
  PF_EXPECT_SAME_RUN(expected_run(matcher, 1 << 12, 20000, 500),
                     scheduler.result(late_id));
}

// aggregate() and save_state() hammered from different threads while the
// drivers run: both quiesce through the same counter gate, and save_state
// additionally parks on the result()-copy reservation
// (quiesced_for_save_locked, whose mu_.assert_held() makes the capability
// part of the quiesce path itself). The gates must compose — no deadlock,
// no torn snapshot — and every mid-run freeze must thaw into a fleet that
// finishes bitwise-equal to a never-interrupted run.
TEST(SchedulerParallel, ConcurrentAggregateAndSaveStateCompose) {
  const auto targets = mixing_targets();
  HashSetMatcher matcher(targets);
  util::ThreadPool pool(2);

  SchedulerConfig fleet;
  fleet.pool = &pool;
  fleet.slice_chunks = 1;
  fleet.max_concurrent = 2;
  AttackScheduler scheduler(fleet);

  const std::size_t periods[] = {1 << 14, 1 << 13};
  MixingGenerator a(periods[0]), b(periods[1]);
  ScenarioOptions options;
  options.session = chunked_config(40000, 500);
  options.session.pipeline_depth = 2;
  std::vector<std::size_t> ids;
  ids.push_back(scheduler.add_scenario(a, matcher, options));
  ids.push_back(scheduler.add_scenario(b, matcher, options));

  std::thread runner([&] { scheduler.run(); });

  std::thread aggregator([&] {
    std::size_t last_produced = 0;
    for (int i = 0; i < 15; ++i) {
      const SchedulerStats stats = scheduler.aggregate();
      EXPECT_GE(stats.produced, last_produced);
      last_produced = stats.produced;
    }
  });

  // Freeze repeatedly from this thread while the aggregator and drivers
  // are live; keep the last snapshot for the thaw check below.
  std::stringstream snapshot;
  for (int i = 0; i < 10; ++i) {
    std::stringstream out;
    scheduler.save_state(out);
    snapshot = std::move(out);
  }

  aggregator.join();
  runner.join();
  scheduler.run();  // mop up anything the live run missed (no-op if none)
  EXPECT_TRUE(scheduler.finished());
  EXPECT_EQ(scheduler.aggregate().produced, 2u * 40000u);

  // The live fleet kept running after each freeze; the snapshot itself
  // must still be a consistent slice-boundary state.
  std::vector<std::unique_ptr<MixingGenerator>> thawed_generators;
  for (const std::size_t period : periods) {
    thawed_generators.push_back(std::make_unique<MixingGenerator>(period));
  }
  AttackScheduler thawed(fleet);
  thawed.load_state(
      snapshot, [&](const AttackScheduler::ScenarioThawInfo& info)
                    -> AttackScheduler::ScenarioBinding {
        return {*thawed_generators.at(info.index), matcher};
      });
  while (thawed.step()) {
  }
  for (std::size_t i = 0; i < 2; ++i) {
    PF_EXPECT_SAME_RUN(expected_run(matcher, periods[i], 40000, 500),
                       thawed.result(ids[i]));
  }
}

}  // namespace
}  // namespace passflow::guessing
