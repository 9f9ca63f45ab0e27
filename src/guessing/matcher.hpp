// Membership oracles over the (deduplicated) test set.
//
// Mirrors the paper's evaluation: a guess "matches" iff it equals a password
// in the cleaned RockYou test partition (§IV-D, §V-A). `Matcher` is the
// abstract interface the attack engine probes; there are two
// implementations:
//
//   - HashSetMatcher: the whole test set in one in-memory
//     util::FlatStringSet.
//   - MappedMatcher (mapped_matcher.hpp): an mmap-paged on-disk shard
//     index for test sets that outgrow RAM.
//
// Both answer identically for every input. All implementations must be
// safe for concurrent read-only use: the pipelined AttackSession probes the
// matcher from its producer thread while other sessions may share the same
// instance.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/flat_string_set.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {

class Matcher {
 public:
  virtual ~Matcher() = default;

  virtual bool contains(const std::string& password) const = 0;

  // Number of distinct test-set passwords (the denominator of Table II's
  // matched %).
  virtual std::size_t test_set_size() const = 0;

  virtual std::string name() const = 0;

  // Bulk membership: fills out[i] = contains(batch[i]) for the whole
  // batch. `out` is assigned/overwritten. The base implementation probes
  // serially or splits the batch across `pool` when the batch is large
  // enough to be worth it; MappedMatcher overrides with a shard-parallel
  // plan. Must be callable concurrently from multiple threads.
  virtual void contains_batch(const std::vector<std::string>& batch,
                              util::ThreadPool* pool,
                              std::vector<char>& out) const;

 protected:
  // Below this batch size the hash probes are too cheap to farm out.
  static constexpr std::size_t kParallelBatchThreshold = 1024;
};

// The whole test set in one flat hash set: the matcher for every test set
// that fits in memory on one node.
class HashSetMatcher : public Matcher {
 public:
  explicit HashSetMatcher(const std::vector<std::string>& test_set);

  bool contains(const std::string& password) const override {
    return test_set_.contains(password);
  }
  std::size_t test_set_size() const override { return test_set_.size(); }
  std::string name() const override { return "hashset"; }

 private:
  util::FlatStringSet test_set_;
};

}  // namespace passflow::guessing
