// Disk-backed membership oracle: an on-disk shard index probed through
// mmap, for test sets that outgrow RAM.
//
// HashSetMatcher holds every test-set password on the heap, which caps an
// attack at what fits in memory on one node; real leaked-credential
// corpora run to tens of GB. MappedMatcher moves the whole structure into
// one index file that the kernel pages on demand: probes touch only the
// slots and key bytes they actually read, so peak RSS stays bounded by the
// working set, not the corpus.
//
// Index file layout (all integers little-endian, offsets absolute):
//
//   header   (48 B)   magic "PFMIDX1\n" | format version u64 | hash seed
//                     u64 | shard count u64 | key count u64 | file bytes u64
//   directory         per shard: table offset u64 | slot count u64 |
//                     arena offset u64 | arena bytes u64
//   per shard         open-addressing slot table (24 B slots: stored hash
//                     u64 | key offset+1 u64 | key length u32 | pad u32),
//                     then the arena of raw key bytes, both 8-byte aligned
//
// A key lives in shard hash64(key) % shard_count (the stable util::hash64,
// so placement does not depend on the standard library) and probes
// linearly from mix64(hash) & (slot_count - 1); slots store the full
// 64-bit hash so a probe compares key bytes at most once per true
// candidate. The loader validates magic, version, hash seed and every
// declared extent against the real file size, so corrupt or foreign files
// fail loudly instead of faulting mid-attack. contains_batch matches the
// shards in parallel across the pool, one task per shard.
//
// IndexBuilder writes the file from a streamed wordlist in bounded memory:
// pass 1 spills (hash, key) records to one temp file per shard, pass 2
// deduplicates and lays out one shard at a time — peak memory is the
// largest single shard, ~index_size / num_shards.
//
// Answers are identical to HashSetMatcher over the same key set, so every
// session/scheduler metric is bitwise unchanged when an attack swaps the
// in-memory matcher for a mapped one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "guessing/matcher.hpp"
#include "util/mmap_file.hpp"
#include "util/timer.hpp"

namespace passflow::guessing {

// On-disk format constants. The hash seed is pinned to util::hash64's
// default: stored hashes and shard assignments were computed with it, so a
// header carrying any other seed cannot be probed correctly and is
// rejected at load.
inline constexpr char kIndexMagic[9] = "PFMIDX1\n";  // 8 bytes on disk
inline constexpr std::uint64_t kIndexFormatVersion = 1;
inline constexpr std::uint64_t kIndexHashSeed = 0x9e3779b97f4a7c15ULL;
inline constexpr std::size_t kIndexHeaderBytes = 48;
inline constexpr std::size_t kIndexDirEntryBytes = 32;
inline constexpr std::size_t kIndexSlotBytes = 24;

struct IndexBuilderConfig {
  // One temp spill file and one final table+arena per shard; peak build
  // memory is the largest shard (~total index bytes / num_shards), so more
  // shards = less RAM. Probe cost does not depend on the shard count.
  std::size_t num_shards = 16;
  // Occupied fraction of each shard's slot table (clamped to [0.1, 0.9]).
  // Lower = fewer probe collisions, larger file.
  double max_load_factor = 0.7;
};

struct IndexBuildStats {
  std::size_t keys_seen = 0;      // add() calls, duplicates included
  std::size_t keys_distinct = 0;  // keys in the final index
  std::size_t shard_count = 0;
  std::size_t file_bytes = 0;
  std::size_t peak_shard_bytes = 0;  // largest table+arena built in memory
  double seconds = 0.0;
};

// Streams a wordlist into an index file. Usage:
//
//   IndexBuilder builder(config);
//   builder.begin("rockyou.pfidx");
//   for (const auto& password : stream) builder.add(password);
//   IndexBuildStats stats = builder.finish();
//
// add() only hashes and spills (O(1) memory); the shard tables are built
// one at a time inside finish(). Keys may contain arbitrary bytes,
// including NUL and newline. Duplicates are deduplicated. The written file
// is byte-identical for identical key streams.
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexBuilderConfig config = IndexBuilderConfig());
  // Abandoning a build (destruction before finish(), or a finish() that
  // threw) removes the spill temp files and any partial index, and leaves
  // the builder ready for a fresh begin().
  ~IndexBuilder();

  void begin(const std::string& out_path);
  // Throws std::invalid_argument for keys longer than 4 GiB - 1 (the
  // format's u32 key-length field).
  void add(std::string_view key);
  IndexBuildStats finish();

  // One-shot conveniences over begin/add/finish.
  static IndexBuildStats build(const std::vector<std::string>& keys,
                               const std::string& out_path,
                               IndexBuilderConfig config = IndexBuilderConfig());
  // Newline-delimited wordlist ('\r' before '\n' is stripped; other bytes
  // pass through verbatim).
  static IndexBuildStats build_wordlist(std::istream& words,
                                        const std::string& out_path,
                                        IndexBuilderConfig config = IndexBuilderConfig());

 private:
  std::string spill_path(std::size_t shard) const;
  IndexBuildStats finish_impl();
  // Closes and removes the spill files and the (partial) output file.
  void discard();

  IndexBuilderConfig config_;
  std::string out_path_;
  std::vector<std::ofstream> spills_;
  std::size_t keys_seen_ = 0;
  util::Timer timer_;  // reset in begin(); stats.seconds spans add()s too
  bool active_ = false;
};

// Probes an IndexBuilder file through a read-only mmap. Construction
// validates the header and every declared extent, then advises the kernel
// for random access; probes after that touch only the pages they read.
// Immutable and safe for concurrent use from any number of threads, like
// every Matcher.
class MappedMatcher : public Matcher {
 public:
  explicit MappedMatcher(const std::string& index_path);

  // Range-restricted view for distributed shard splits: contains() answers
  // true only for keys whose shard falls in [shard_begin, shard_end) —
  // keys hashing elsewhere are false without touching the file — and
  // test_set_size() is the number of keys stored in those shards (counted
  // once at construction by scanning their slot tables). Ranges from
  // split_shard_ranges over shard_count() partition the full matcher:
  // per-range sizes sum to the full size and exactly one range answers
  // true for any indexed key, so distributed per-range match counts merge
  // by plain addition.
  MappedMatcher(const std::string& index_path, std::size_t shard_begin,
                std::size_t shard_end);

  bool contains(const std::string& password) const override;
  std::size_t test_set_size() const override { return key_count_; }
  std::string name() const override;
  void contains_batch(const std::vector<std::string>& batch,
                      util::ThreadPool* pool,
                      std::vector<char>& out) const override;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_begin() const { return shard_begin_; }
  std::size_t shard_end() const { return shard_end_; }
  std::size_t file_bytes() const { return file_.size(); }
  const std::string& path() const { return file_.path(); }

 private:
  struct ShardView {
    const unsigned char* table = nullptr;
    std::size_t slot_count = 0;  // power of two (0 for an empty shard)
    const unsigned char* arena = nullptr;
    std::size_t arena_bytes = 0;
  };

  bool probe_shard(const ShardView& shard, std::uint64_t hash,
                   std::string_view key) const;

  util::MmapFile file_;
  std::vector<ShardView> shards_;
  std::size_t key_count_ = 0;
  // Active shard range [begin, end); the full-matcher constructor covers
  // every shard.
  std::size_t shard_begin_ = 0;
  std::size_t shard_end_ = 0;
};

}  // namespace passflow::guessing
