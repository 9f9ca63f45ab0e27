#include "guessing/matcher.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace passflow::guessing {

void Matcher::contains_batch(const std::vector<std::string>& batch,
                             util::ThreadPool* pool,
                             std::vector<char>& out) const {
  // Plain chars (not vector<bool>) so concurrent writes to distinct
  // indices are race-free.
  out.assign(batch.size(), 0);
  const bool parallel = pool != nullptr && pool->size() > 1 &&
                        batch.size() >= kParallelBatchThreshold;
  if (parallel) {
    pool->parallel_for(batch.size(), [&](std::size_t i) {
      out[i] = contains(batch[i]) ? 1 : 0;
    });
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = contains(batch[i]) ? 1 : 0;
    }
  }
}

HashSetMatcher::HashSetMatcher(const std::vector<std::string>& test_set)
    : test_set_(test_set.size()) {
  for (const std::string& password : test_set) test_set_.insert(password);
}

}  // namespace passflow::guessing
