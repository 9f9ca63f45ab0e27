#include "guessing/unique_tracker.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cardinality_sketch.hpp"
#include "util/flat_string_set.hpp"
#include "util/hash.hpp"
#include "util/serial_io.hpp"

namespace passflow::guessing {

namespace {

constexpr char kExactMagic[] = "PFUTEX1\n";
constexpr char kSketchMagic[] = "PFUTSK1\n";

class NullUniqueTracker final : public UniqueTracker {
 public:
  void add_batch(const std::vector<std::string>&,
                 util::ThreadPool*) override {}
  std::size_t count() const override { return 0; }
  bool exact() const override { return true; }
  UniqueTracking mode() const override { return UniqueTracking::kOff; }
  std::size_t memory_bytes() const override { return 0; }
  bool merge_into(util::CardinalitySketch&) const override { return false; }
  void save(std::ostream&) const override {}
  void load(std::istream&) override {}
};

// Shards of the exact tracker: a key lives in shard hash64(key) %
// kExactShards. Four measured fastest both serially and on a 4-thread
// pool at the rules attack's chunk shapes.
constexpr std::size_t kExactShards = 4;

class ExactUniqueTracker final : public UniqueTracker {
 public:
  void add_batch(const std::vector<std::string>& batch,
                 util::ThreadPool* pool) override {
    // Hash once per guess, then insert shard-parallel: each task owns one
    // sub-set and only touches the guesses routed to it, so the shards
    // never contend. Each shard sees its guesses in batch order, so the
    // saved state does not depend on the pool either.
    hashes_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      hashes_[i] = util::hash64(batch[i]);
    }
    const auto insert_shard = [&](std::size_t s) {
      util::FlatStringSet& set = shards_[s];
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (hashes_[i] % kExactShards == s) {
          set.insert_hashed(hashes_[i], batch[i]);
        }
      }
    };
    if (pool != nullptr && pool->size() > 1) {
      pool->parallel_for(kExactShards, insert_shard);
    } else {
      for (std::size_t s = 0; s < kExactShards; ++s) insert_shard(s);
    }
  }

  std::size_t count() const override {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.size();
    return total;
  }

  bool exact() const override { return true; }
  UniqueTracking mode() const override { return UniqueTracking::kExact; }

  bool merge_into(util::CardinalitySketch& sketch) const override {
    // Re-adding a key already represented in the sketch is idempotent, so
    // the merged estimate is exactly the sketch of the union of streams.
    for (const auto& shard : shards_) {
      shard.for_each([&](std::string_view key) { sketch.add(key); });
    }
    return true;
  }

  std::size_t memory_bytes() const override {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.memory_bytes();
    return total;
  }

  void save(std::ostream& out) const override {
    out.write(kExactMagic, sizeof(kExactMagic) - 1);
    util::io::write_u64(out, count());
    for (const auto& shard : shards_) {
      shard.for_each([&](std::string_view key) {
        util::io::write_u64(out, key.size());
        out.write(key.data(), static_cast<std::streamsize>(key.size()));
      });
    }
    if (!out) throw std::runtime_error("ExactUniqueTracker write failed");
  }

  void load(std::istream& in) override {
    util::io::expect_magic(in, kExactMagic, "ExactUniqueTracker");
    const std::uint64_t total = util::io::read_u64(in);
    // Keys are re-routed by hash, so a stream saved in any key order
    // (e.g. one set's insertion order) loads to the same shards.
    std::string key;
    for (std::uint64_t k = 0; k < total; ++k) {
      key = util::io::read_string(in);
      const std::uint64_t hash = util::hash64(key);
      shards_[hash % kExactShards].insert_hashed(hash, key);
    }
  }

 private:
  std::array<util::FlatStringSet, kExactShards> shards_;
  std::vector<std::uint64_t> hashes_;  // per-chunk scratch
};

class SketchUniqueTracker final : public UniqueTracker {
 public:
  explicit SketchUniqueTracker(unsigned precision_bits)
      : sketch_(precision_bits) {}

  void add_batch(const std::vector<std::string>& batch,
                 util::ThreadPool*) override {
    for (const std::string& guess : batch) sketch_.add(guess);
  }

  std::size_t count() const override { return sketch_.estimate(); }
  bool exact() const override { return false; }
  UniqueTracking mode() const override { return UniqueTracking::kSketch; }
  std::size_t memory_bytes() const override { return sketch_.memory_bytes(); }

  bool merge_into(util::CardinalitySketch& sketch) const override {
    sketch.merge(sketch_);
    return true;
  }

  void save(std::ostream& out) const override {
    out.write(kSketchMagic, sizeof(kSketchMagic) - 1);
    sketch_.save(out);
  }

  void load(std::istream& in) override {
    util::io::expect_magic(in, kSketchMagic, "SketchUniqueTracker");
    sketch_.load(in);
  }

 private:
  util::CardinalitySketch sketch_;
};

}  // namespace

const char* unique_tracking_name(UniqueTracking mode) {
  switch (mode) {
    case UniqueTracking::kOff:
      return "off";
    case UniqueTracking::kExact:
      return "exact";
    case UniqueTracking::kSketch:
      return "sketch";
  }
  return "unknown";
}

std::unique_ptr<UniqueTracker> make_unique_tracker(
    UniqueTracking mode, unsigned sketch_precision_bits) {
  switch (mode) {
    case UniqueTracking::kOff:
      return std::make_unique<NullUniqueTracker>();
    case UniqueTracking::kExact:
      return std::make_unique<ExactUniqueTracker>();
    case UniqueTracking::kSketch:
      return std::make_unique<SketchUniqueTracker>(sketch_precision_bits);
  }
  throw std::invalid_argument("unknown UniqueTracking mode");
}

}  // namespace passflow::guessing
