// Open-addressing hash set specialized for counting distinct short strings.
//
// A node-based hash set pays one node allocation per insert, a pointer
// chase per probe and a full re-hash of every element on growth — at the
// 10^7+ distinct-guess scale of a guessing run that is the single hottest
// consumer-side cost. This set stores keys back-to-back in an append-only
// arena and keeps a flat power-of-two probe table of {hash, entry-index}
// slots, so:
//
//   - inserts do no per-element allocation (amortized arena/table growth);
//   - probes compare the stored 64-bit hash before touching key bytes;
//   - growth re-places 16-byte slots by stored hash without re-reading or
//     re-hashing any key.
//
// It is the one in-memory string set of the library: the test-set matcher,
// the session's matched and non-matched sets, the exact unique tracker,
// the corpus split and the disk-index builder all use it. Deletion is
// deliberately unsupported — every one of those sets only grows — which
// keeps probing tombstone-free. Keys are returned in
// insertion order by for_each, which is what makes session save/resume
// byte-stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace passflow::util {

class FlatStringSet {
 public:
  explicit FlatStringSet(std::size_t expected_keys = 0);

  // Inserts `key` if absent; returns true when the key was new.
  bool insert(std::string_view key) { return insert_hashed(hash64(key), key); }
  // Same, with the util::hash64 of `key` already computed by the caller.
  bool insert_hashed(std::uint64_t hash, std::string_view key);

  bool contains(std::string_view key) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear();

  // Reserves room for `keys` entries (probe table + bookkeeping).
  void reserve(std::size_t keys);

  // Visits every key in insertion order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(std::string_view(arena_.data() + e.offset, e.length));
    }
  }

  // Visits every (stored hash, key) in insertion order — for consumers
  // that need the hash again (e.g. the disk-index emitter) without paying
  // a second full hashing pass.
  template <typename Fn>
  void for_each_hashed(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.hash, std::string_view(arena_.data() + e.offset, e.length));
    }
  }

  std::size_t memory_bytes() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;  // into arena_
    std::uint32_t length = 0;
  };
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t index_plus_one = 0;  // 0 = empty
  };

  std::string_view key_of(const Entry& e) const {
    return {arena_.data() + e.offset, e.length};
  }
  void grow_table();
  std::size_t probe_start(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash) & mask_;
  }

  std::vector<char> arena_;
  std::vector<Entry> entries_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace passflow::util
