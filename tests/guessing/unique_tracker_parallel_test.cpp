// The exact unique tracker's one code path: a hash-once fold over a fixed
// number of FlatStringSet shards, one pool task per shard. Its count must
// equal a plain set's, its saved bytes must not depend on the pool, a
// state saved in single-set insertion order (what older session saves
// hold) must load to the same tracker, and its sketch contribution must
// equal a sketch fed the keys directly. Runs under the `thread_safety`
// CTest label (and its TSan job).
#include "guessing/unique_tracker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "reference_harness.hpp"
#include "util/cardinality_sketch.hpp"
#include "util/serial_io.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

using testing::MixingGenerator;

// 40 chunks of a duplicate-heavy stream (~2^13 distinct values).
std::vector<std::vector<std::string>> mixing_chunks() {
  MixingGenerator generator(1 << 13);
  std::vector<std::vector<std::string>> chunks(40);
  for (auto& chunk : chunks) generator.generate(1000, chunk);
  return chunks;
}

std::unique_ptr<UniqueTracker> fed_tracker(
    const std::vector<std::vector<std::string>>& chunks,
    util::ThreadPool* pool) {
  auto tracker = make_unique_tracker(UniqueTracking::kExact);
  for (const auto& chunk : chunks) tracker->add_batch(chunk, pool);
  return tracker;
}

std::string saved(const UniqueTracker& tracker) {
  std::ostringstream out;
  tracker.save(out);
  return out.str();
}

TEST(UniqueTrackerParallel, ExactCountEqualsStdSet) {
  util::ThreadPool pool(4);
  auto pooled = make_unique_tracker(UniqueTracking::kExact);
  auto serial = make_unique_tracker(UniqueTracking::kExact);
  std::set<std::string> reference;
  for (const auto& chunk : mixing_chunks()) {
    pooled->add_batch(chunk, &pool);
    serial->add_batch(chunk, nullptr);
    reference.insert(chunk.begin(), chunk.end());
    ASSERT_EQ(pooled->count(), reference.size());
    ASSERT_EQ(serial->count(), reference.size());
  }
  EXPECT_GT(reference.size(), 1000u);
}

TEST(UniqueTrackerParallel, SaveBytesDoNotDependOnThePool) {
  const auto chunks = mixing_chunks();
  util::ThreadPool pool(4);
  EXPECT_EQ(saved(*fed_tracker(chunks, nullptr)),
            saved(*fed_tracker(chunks, &pool)));
}

TEST(UniqueTrackerParallel, SingleSetOrderStateLoadsToTheLiveTracker) {
  // The exact-tracker state format is a key count and then the keys. A
  // one-set tracker wrote them in first-seen order, which is what
  // tests/fixtures/state/valid.state holds; loading re-routes every key
  // by hash, so the result is the tracker that saw the stream live.
  const auto chunks = mixing_chunks();
  std::set<std::string> seen;
  std::vector<std::string> first_seen;
  for (const auto& chunk : chunks) {
    for (const auto& key : chunk) {
      if (seen.insert(key).second) first_seen.push_back(key);
    }
  }
  std::stringstream single_set;
  single_set.write("PFUTEX1\n", 8);
  util::io::write_u64(single_set, first_seen.size());
  for (const auto& key : first_seen) util::io::write_string(single_set, key);

  auto loaded = make_unique_tracker(UniqueTracking::kExact);
  loaded->load(single_set);
  EXPECT_EQ(loaded->count(), first_seen.size());

  util::ThreadPool pool(4);
  EXPECT_EQ(saved(*loaded), saved(*fed_tracker(chunks, &pool)));
}

TEST(UniqueTrackerParallel, MergeIntoEqualsSketchFedDirectly) {
  const auto chunks = mixing_chunks();
  util::ThreadPool pool(4);
  const auto tracker = fed_tracker(chunks, &pool);

  util::CardinalitySketch merged(14);
  ASSERT_TRUE(tracker->merge_into(merged));
  util::CardinalitySketch direct(14);
  for (const auto& chunk : chunks) {
    for (const auto& key : chunk) direct.add(key);
  }
  std::ostringstream merged_bytes;
  std::ostringstream direct_bytes;
  merged.save(merged_bytes);
  direct.save(direct_bytes);
  EXPECT_EQ(merged_bytes.str(), direct_bytes.str());
  EXPECT_EQ(merged.estimate(), direct.estimate());
}

}  // namespace
}  // namespace passflow::guessing
