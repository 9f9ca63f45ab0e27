// Fleet freeze/thaw suite: AttackScheduler::save_state / load_state. The
// core invariant mirrors the session suite's — a fleet frozen at any slice
// boundary and thawed in a fresh scheduler finishes with per-scenario
// metrics bitwise identical to a never-interrupted run — plus the QoS
// ledger semantics: virtual clocks resume the same fair split, deadlines
// re-anchor by remaining time, latched outcomes survive, and corrupt
// streams leave the thawing scheduler untouched.
#include "guessing/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reference_harness.hpp"

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

// Resolver over a bank of generators indexed by thaw order, asserting the
// saved registration order and labels round-trip.
struct GeneratorBank {
  std::vector<std::unique_ptr<MixingGenerator>> generators;
  const Matcher& matcher;

  AttackScheduler::ScenarioResolver resolver() {
    return [this](const AttackScheduler::ScenarioThawInfo& info)
               -> AttackScheduler::ScenarioBinding {
      EXPECT_LT(info.index, generators.size());
      return {*generators.at(info.index), matcher};
    };
  }
};

TEST(AttackSchedulerState, FrozenFleetFinishesBitwiseEqualExactTracking) {
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 3;
  const std::size_t periods[] = {1 << 14, 1 << 13, 1 << 12};
  const std::size_t budgets[] = {20000, 21000, 22000};

  AttackScheduler scheduler(fleet);
  MixingGenerator generators[] = {MixingGenerator(periods[0]),
                                  MixingGenerator(periods[1]),
                                  MixingGenerator(periods[2])};
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    ScenarioOptions options;
    options.name = "scn-" + std::to_string(i);
    options.weight = 1.0 + static_cast<double>(i);
    options.session = chunked_config(budgets[i], 512);
    ids.push_back(scheduler.add_scenario(generators[i], matcher, options));
  }

  for (int i = 0; i < 11; ++i) ASSERT_TRUE(scheduler.step());
  std::stringstream frozen;
  scheduler.save_state(frozen);
  // The saved fleet keeps running here too: freeze is a snapshot, not a
  // shutdown. (We drop it instead — the thawed one is the fleet under test.)

  GeneratorBank bank{{}, matcher};
  for (const std::size_t period : periods) {
    bank.generators.push_back(std::make_unique<MixingGenerator>(period));
  }
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());

  ASSERT_EQ(thawed.scenario_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ScenarioSnapshot snap = thawed.scenario(ids[i]);
    EXPECT_EQ(snap.name, "scn-" + std::to_string(i));
    EXPECT_DOUBLE_EQ(snap.weight, 1.0 + static_cast<double>(i));
  }

  while (thawed.step()) {
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const RunResult expected =
        expected_run(matcher, periods[i], budgets[i], 512);
    ASSERT_GT(expected.final().matched, 0u);
    PF_EXPECT_SAME_RUN(expected, thawed.result(ids[i]));
    EXPECT_EQ(thawed.scenario(ids[i]).status, ScenarioStatus::kFinished);
  }
}

TEST(AttackSchedulerState, FrozenFleetFinishesBitwiseEqualSketchTracking) {
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 2;
  AttackScheduler scheduler(fleet);

  MixingGenerator generator(1 << 13);
  ScenarioOptions options;
  options.session = chunked_config(24000, 500);
  options.session.unique_tracking = UniqueTracking::kSketch;
  options.session.sketch_precision_bits = 14;
  const std::size_t id = scheduler.add_scenario(generator, matcher, options);

  for (int i = 0; i < 9; ++i) ASSERT_TRUE(scheduler.step());
  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>(1 << 13));
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());
  while (thawed.step()) {
  }

  // Sketch mode: compare against the same session run uninterrupted (the
  // reference loop tracks exactly; the sketch estimate must match the
  // sketch estimate, bitwise, not the exact count).
  MixingGenerator solo_generator(1 << 13);
  AttackSession solo(solo_generator, matcher, options.session);
  solo.run();
  PF_EXPECT_SAME_RUN(solo.result(), thawed.result(id));

  const SchedulerStats stats = thawed.aggregate();
  EXPECT_TRUE(stats.unique_union_valid);
  EXPECT_GT(stats.unique_union, 0u);
}

TEST(AttackSchedulerState, ResumedScheduleMakesTheSameFairShareDecisions) {
  // Virtual clocks are part of the state: 20 slices, freeze, thaw, 20 more
  // must allocate exactly like 40 uninterrupted slices.
  HashSetMatcher matcher({"nothing"});
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  ScenarioOptions light_options;
  light_options.weight = 1.0;
  light_options.session = chunked_config(10000, 100);
  ScenarioOptions heavy_options;
  heavy_options.weight = 3.0;
  heavy_options.session = chunked_config(10000, 100);

  MixingGenerator light, heavy;
  AttackScheduler uninterrupted(fleet);
  const std::size_t light_id =
      uninterrupted.add_scenario(light, matcher, light_options);
  const std::size_t heavy_id =
      uninterrupted.add_scenario(heavy, matcher, heavy_options);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(uninterrupted.step());

  MixingGenerator light2, heavy2;
  AttackScheduler first_half(fleet);
  first_half.add_scenario(light2, matcher, light_options);
  first_half.add_scenario(heavy2, matcher, heavy_options);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(first_half.step());
  std::stringstream frozen;
  first_half.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler second_half(fleet);
  second_half.load_state(frozen, bank.resolver());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(second_half.step());

  EXPECT_EQ(second_half.scenario(light_id).chunks_driven,
            uninterrupted.scenario(light_id).chunks_driven);
  EXPECT_EQ(second_half.scenario(heavy_id).chunks_driven,
            uninterrupted.scenario(heavy_id).chunks_driven);
}

TEST(AttackSchedulerState, PausedAndFinishedStatusesSurviveThaw) {
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);

  MixingGenerator small, parked;
  ScenarioOptions small_options;
  small_options.session = chunked_config(1000, 500);
  ScenarioOptions parked_options;
  parked_options.start_paused = true;
  parked_options.session = chunked_config(1000, 500);
  const std::size_t small_id =
      scheduler.add_scenario(small, matcher, small_options);
  const std::size_t parked_id =
      scheduler.add_scenario(parked, matcher, parked_options);

  while (scheduler.scenario(small_id).status != ScenarioStatus::kFinished) {
    ASSERT_TRUE(scheduler.step());
  }
  const RunResult finished_before = scheduler.result(small_id);
  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());

  // Finished stays finished (results queryable, bitwise identical);
  // paused stays paused (takes no slices until resumed).
  EXPECT_EQ(thawed.scenario(small_id).status, ScenarioStatus::kFinished);
  PF_EXPECT_SAME_RUN(finished_before, thawed.result(small_id));
  EXPECT_EQ(thawed.scenario(parked_id).status, ScenarioStatus::kPaused);
  EXPECT_FALSE(thawed.step());
  EXPECT_TRUE(thawed.finished());

  thawed.resume_scenario(parked_id);
  while (thawed.step()) {
  }
  PF_EXPECT_SAME_RUN(expected_run(matcher, 1 << 14, 1000, 500),
                     thawed.result(parked_id));
}

TEST(AttackSchedulerState, ScenarioThawedPastDeadlineEscalatesAndLatches) {
  HashSetMatcher matcher({"nothing"});
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);

  MixingGenerator generator;
  ScenarioOptions options;
  options.deadline_seconds = 0.01;
  options.session = chunked_config(2000, 500);
  const std::size_t id = scheduler.add_scenario(generator, matcher, options);
  ASSERT_TRUE(scheduler.step());
  // Let the (soft) deadline lapse before freezing, so the save carries a
  // negative remaining time.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());

  // Past immediately on thaw — no grace period from re-anchoring — so
  // deadline_boost escalation is active from the very first pick.
  EXPECT_TRUE(thawed.scenario(id).past_deadline);
  EXPECT_EQ(thawed.aggregate().deadline_missed, 1u);

  while (thawed.step()) {
  }
  // Latched at finish: it finished late, and stays marked late.
  EXPECT_EQ(thawed.scenario(id).status, ScenarioStatus::kFinished);
  EXPECT_TRUE(thawed.scenario(id).past_deadline);
  EXPECT_EQ(thawed.aggregate().deadline_missed, 1u);
}

TEST(AttackSchedulerState, OnTimeFinishLatchSurvivesThawAndTime) {
  HashSetMatcher matcher({"nothing"});
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);

  MixingGenerator generator;
  ScenarioOptions options;
  options.deadline_seconds = 30.0;  // comfortably met
  options.session = chunked_config(1000, 500);
  const std::size_t id = scheduler.add_scenario(generator, matcher, options);
  while (scheduler.step()) {
  }
  ASSERT_EQ(scheduler.scenario(id).status, ScenarioStatus::kFinished);
  ASSERT_FALSE(scheduler.scenario(id).past_deadline);
  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());

  // A scenario that finished on time is on time forever — even thawed,
  // even once its original deadline instant is long past.
  EXPECT_FALSE(thawed.scenario(id).past_deadline);
  EXPECT_EQ(thawed.aggregate().deadline_missed, 0u);
}

TEST(AttackSchedulerState, RateCapLedgerSurvivesThaw) {
  HashSetMatcher matcher({"nothing"});
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);

  MixingGenerator generator;
  ScenarioOptions options;
  options.rate_cap = 1e9;  // effectively uncapped, but the ledger is live
  options.session = chunked_config(3000, 500);
  const std::size_t id = scheduler.add_scenario(generator, matcher, options);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(scheduler.step());
  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());

  EXPECT_DOUBLE_EQ(thawed.scenario(id).rate_cap, 1e9);
  while (thawed.step()) {
  }
  EXPECT_EQ(thawed.scenario(id).status, ScenarioStatus::kFinished);
  EXPECT_GT(thawed.scenario(id).achieved_guesses_per_second, 0.0);
  PF_EXPECT_SAME_RUN(expected_run(matcher, 1 << 14, 3000, 500),
                     thawed.result(id));
}

TEST(AttackSchedulerState, SaveIsASnapshotNotAShutdown) {
  // The frozen fleet keeps driving after save_state returns, and still
  // finishes with its solo metrics.
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);
  MixingGenerator generator;
  ScenarioOptions options;
  options.session = chunked_config(8000, 500);
  const std::size_t id = scheduler.add_scenario(generator, matcher, options);

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(scheduler.step());
  std::stringstream frozen;
  scheduler.save_state(frozen);
  while (scheduler.step()) {
  }
  PF_EXPECT_SAME_RUN(expected_run(matcher, 1 << 14, 8000, 500),
                     scheduler.result(id));
}

TEST(AttackSchedulerState, LoadRequiresFreshSchedulerAndResolver) {
  HashSetMatcher matcher({"x"});
  SchedulerConfig fleet;
  AttackScheduler source(fleet);
  MixingGenerator generator;
  ScenarioOptions options;
  options.session = chunked_config(1000, 500);
  source.add_scenario(generator, matcher, options);
  std::stringstream frozen;
  source.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());

  AttackScheduler used(fleet);
  MixingGenerator other;
  used.add_scenario(other, matcher, options);
  EXPECT_THROW(used.load_state(frozen, bank.resolver()), std::logic_error);

  frozen.clear();
  frozen.seekg(0);
  AttackScheduler fresh(fleet);
  EXPECT_THROW(fresh.load_state(frozen, nullptr), std::invalid_argument);
}

TEST(AttackSchedulerState, CorruptStreamLeavesThawingSchedulerUntouched) {
  HashSetMatcher matcher({"x"});
  SchedulerConfig fleet;
  AttackScheduler source(fleet);
  MixingGenerator generator;
  ScenarioOptions options;
  options.session = chunked_config(2000, 500);
  source.add_scenario(generator, matcher, options);
  std::stringstream frozen;
  source.save_state(frozen);
  const std::string good = frozen.str();

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  bank.generators.push_back(std::make_unique<MixingGenerator>());

  {
    std::stringstream bad_magic("NOTMAGIC" + good.substr(8));
    AttackScheduler target(fleet);
    EXPECT_THROW(target.load_state(bad_magic, bank.resolver()),
                 std::runtime_error);
    EXPECT_EQ(target.scenario_count(), 0u);
  }
  {
    std::stringstream truncated(good.substr(0, good.size() / 2));
    AttackScheduler target(fleet);
    EXPECT_THROW(target.load_state(truncated, bank.resolver()),
                 std::runtime_error);
    EXPECT_EQ(target.scenario_count(), 0u);
    // Still fresh: a later clean load must succeed.
    std::stringstream intact(good);
    target.load_state(intact, bank.resolver());
    EXPECT_EQ(target.scenario_count(), 1u);
    while (target.step()) {
    }
    EXPECT_TRUE(target.finished());
  }
}

TEST(AttackSchedulerState, PreviousFormatVersionIsRejectedAsBadMagic) {
  // PFSCHD1 echoed an exact-tracker shard count that PFSCHD2 dropped; the
  // version lives in the magic, so an old stream fails before any field
  // is read.
  HashSetMatcher matcher({"x"});
  SchedulerConfig fleet;
  AttackScheduler source(fleet);
  MixingGenerator generator;
  ScenarioOptions options;
  options.session = chunked_config(2000, 500);
  source.add_scenario(generator, matcher, options);
  std::stringstream frozen;
  source.save_state(frozen);
  const std::string good = frozen.str();
  ASSERT_EQ(good.substr(0, 8), "PFSCHD2\n");

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  std::stringstream old_version("PFSCHD1\n" + good.substr(8));
  AttackScheduler target(fleet);
  try {
    target.load_state(old_version, bank.resolver());
    ADD_FAILURE() << "a PFSCHD1 stream loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(target.scenario_count(), 0u);
}

TEST(AttackSchedulerState, RemovedScenariosAreExcludedFromTheSave) {
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  AttackScheduler scheduler(fleet);

  MixingGenerator keep, drop;
  ScenarioOptions options;
  options.session = chunked_config(8000, 500);
  const std::size_t keep_id = scheduler.add_scenario(keep, matcher, options);
  const std::size_t drop_id = scheduler.add_scenario(drop, matcher, options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(scheduler.step());
  scheduler.remove_scenario(drop_id);

  std::stringstream frozen;
  scheduler.save_state(frozen);

  GeneratorBank bank{{}, matcher};
  bank.generators.push_back(std::make_unique<MixingGenerator>());
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());
  EXPECT_EQ(thawed.scenario_count(), 1u);
  EXPECT_NO_THROW(thawed.scenario(keep_id));
  EXPECT_THROW(thawed.scenario(drop_id), std::out_of_range);

  // Ids keep advancing from where the source fleet left off: a new
  // scenario added post-thaw must not collide with the removed id's
  // successor space.
  MixingGenerator late;
  const std::size_t late_id = thawed.add_scenario(late, matcher, options);
  EXPECT_GT(late_id, drop_id);
}

TEST(AttackSchedulerState, SaveUnderConcurrentDriversIsAConsistentCut) {
  // Freeze while run() drivers are live: the quiesce gate must produce a
  // chunk-boundary-consistent snapshot, and the thawed fleet still ends
  // bitwise equal to solo runs.
  HashSetMatcher matcher(mixing_targets());
  SchedulerConfig fleet;
  fleet.slice_chunks = 1;
  fleet.max_concurrent = 4;
  const std::size_t periods[] = {1 << 14, 1 << 12};
  AttackScheduler scheduler(fleet);
  MixingGenerator a(periods[0]), b(periods[1]);
  ScenarioOptions options;
  options.session = chunked_config(60000, 250);
  std::vector<std::size_t> ids;
  ids.push_back(scheduler.add_scenario(a, matcher, options));
  ids.push_back(scheduler.add_scenario(b, matcher, options));

  std::thread driver([&] { scheduler.run(); });
  // Freeze repeatedly while the fleet is hot; keep the last snapshot.
  std::stringstream frozen;
  for (int i = 0; i < 5; ++i) {
    std::stringstream snap;
    scheduler.save_state(snap);
    frozen = std::move(snap);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  driver.join();

  GeneratorBank bank{{}, matcher};
  for (const std::size_t period : periods) {
    bank.generators.push_back(std::make_unique<MixingGenerator>(period));
  }
  AttackScheduler thawed(fleet);
  thawed.load_state(frozen, bank.resolver());
  thawed.run();
  for (std::size_t i = 0; i < 2; ++i) {
    PF_EXPECT_SAME_RUN(expected_run(matcher, periods[i], 60000, 250),
                       thawed.result(ids[i]));
  }
}

}  // namespace
}  // namespace passflow::guessing
