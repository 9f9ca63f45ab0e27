// Distinct-guess accounting behind the attack engine's `unique` metric
// (Table III's "Unique" column).
//
// The tracker interface makes the memory/accuracy trade-off a
// session-level choice:
//
//   - kOff:    no tracking, unique reports 0 (seed track_unique=false).
//   - kExact:  every distinct guess is stored, split by hash over a fixed
//              number of util::FlatStringSet shards. Each chunk is hashed
//              once and folded one task per shard when a pool is given,
//              serially otherwise; the small per-shard tables also make
//              the serial fold faster than one big set.
//   - kSketch: HyperLogLog estimate (util::CardinalitySketch), constant
//              memory (16 KiB at the default precision, ~0.8% error) for
//              the 10^8–10^9 regime where the exact set cannot fit.
//
// Exact counts do not depend on the pool or on insert order within a
// chunk sequence, which is what lets the pipelined session report
// bitwise-identical metrics to a serial run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace passflow::util {
class CardinalitySketch;
}  // namespace passflow::util

namespace passflow::guessing {

enum class UniqueTracking {
  kOff,
  kExact,
  kSketch,
};

const char* unique_tracking_name(UniqueTracking mode);

class UniqueTracker {
 public:
  virtual ~UniqueTracker() = default;

  // Folds a whole chunk of guesses into the tracker. `pool` may be used
  // for shard-parallel inserts; the resulting count and saved state must
  // not depend on it.
  // Not safe for concurrent calls — the session serializes chunk order.
  virtual void add_batch(const std::vector<std::string>& batch,
                         util::ThreadPool* pool) = 0;

  // Distinct guesses so far (an estimate for sketch trackers).
  virtual std::size_t count() const = 0;

  virtual bool exact() const = 0;
  virtual UniqueTracking mode() const = 0;
  virtual std::size_t memory_bytes() const = 0;

  // Folds this tracker's distinct-guess state into `sketch`, the fleet-wide
  // union accumulator of the multi-scenario scheduler: sketch trackers
  // merge registers (register-wise max; throws std::invalid_argument on a
  // precision mismatch), exact trackers re-add every stored key. Every
  // tracker hashes with util::hash64, so exact and sketch contributions
  // compose into one coherent union estimate. Returns false — leaving
  // `sketch` untouched — when there is nothing to contribute (kOff).
  virtual bool merge_into(util::CardinalitySketch& sketch) const = 0;

  // State serialization for session save/resume.
  virtual void save(std::ostream& out) const = 0;
  virtual void load(std::istream& in) = 0;
};

// `sketch_precision_bits`: see util::CardinalitySketch.
std::unique_ptr<UniqueTracker> make_unique_tracker(
    UniqueTracking mode, unsigned sketch_precision_bits = 14);

}  // namespace passflow::guessing
