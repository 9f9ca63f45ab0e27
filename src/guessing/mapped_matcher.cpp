#include "guessing/mapped_matcher.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flat_string_set.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace passflow::guessing {

namespace {

// Native little-endian field access; the format is defined little-endian
// and every supported target is. memcpy keeps the loads alignment- and
// aliasing-safe on the raw mapped bytes.
std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t probe_start(std::uint64_t hash, std::size_t mask) {
  // Shard selection consumed `hash % shard_count`; mix again so the probe
  // position inside the shard is decorrelated from the shard choice.
  return static_cast<std::size_t>(util::mix64(hash)) & mask;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw std::runtime_error("bad matcher index " + path + ": " + why);
}

struct ShardExtents {
  std::size_t slot_count = 0;
  std::size_t arena_bytes = 0;
  std::size_t payload_bytes = 0;    // slots + arena + alignment padding
  std::size_t transient_bytes = 0;  // peak emit-side memory on top of table
};

// Streams one deduplicated shard — exactly-sized slot table, then the key
// arena, 8-byte aligned — from `table` to `out`. Nothing shard-sized is
// buffered: slots go through a small fixed chunk and arena bytes are
// written straight out of the table's own storage, so the builder's peak
// memory really is one shard's dedup table plus O(slots) placement
// bookkeeping.
ShardExtents emit_shard(const util::FlatStringSet& table,
                        double max_load_factor, std::ostream& out) {
  struct EmitEntry {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;  // into this shard's arena
    std::uint32_t length = 0;
  };
  ShardExtents extents;
  if (table.size() > 0) {
    const auto wanted = static_cast<std::size_t>(
        static_cast<double>(table.size()) / max_load_factor) + 1;
    extents.slot_count = next_pow2(wanted < 2 ? 2 : wanted);
  }
  std::vector<EmitEntry> entries;
  entries.reserve(table.size());
  table.for_each_hashed([&](std::uint64_t hash, std::string_view key) {
    EmitEntry entry;
    entry.hash = hash;
    entry.offset = extents.arena_bytes;
    entry.length = static_cast<std::uint32_t>(key.size());
    entries.push_back(entry);
    extents.arena_bytes += key.size();
  });
  std::vector<std::uint32_t> placed(extents.slot_count, 0);  // entry idx + 1
  const std::size_t mask =
      extents.slot_count == 0 ? 0 : extents.slot_count - 1;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    std::size_t i = probe_start(entries[e].hash, mask);
    while (placed[i] != 0) i = (i + 1) & mask;
    placed[i] = static_cast<std::uint32_t>(e + 1);
  }

  std::string chunk;
  chunk.reserve(64 * 1024);
  for (std::size_t i = 0; i < extents.slot_count; ++i) {
    if (placed[i] == 0) {
      append_u64(chunk, 0);
      append_u64(chunk, 0);
      append_u32(chunk, 0);
      append_u32(chunk, 0);
    } else {
      const EmitEntry& e = entries[placed[i] - 1];
      append_u64(chunk, e.hash);
      append_u64(chunk, e.offset + 1);
      append_u32(chunk, e.length);
      append_u32(chunk, 0);
    }
    if (chunk.size() + kIndexSlotBytes > chunk.capacity()) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  table.for_each([&](std::string_view key) {
    out.write(key.data(), static_cast<std::streamsize>(key.size()));
  });
  extents.payload_bytes =
      extents.slot_count * kIndexSlotBytes + extents.arena_bytes;
  while (extents.payload_bytes % 8 != 0) {
    out.put('\0');
    ++extents.payload_bytes;
  }
  extents.transient_bytes = entries.size() * sizeof(EmitEntry) +
                            placed.size() * sizeof(std::uint32_t) +
                            chunk.capacity();
  return extents;
}

}  // namespace

// ----------------------------------------------------------- IndexBuilder

IndexBuilder::IndexBuilder(IndexBuilderConfig config) : config_(config) {
  if (config_.num_shards == 0) {
    throw std::invalid_argument("IndexBuilder needs at least one shard");
  }
  if (config_.max_load_factor < 0.1) config_.max_load_factor = 0.1;
  if (config_.max_load_factor > 0.9) config_.max_load_factor = 0.9;
}

IndexBuilder::~IndexBuilder() {
  if (active_) discard();
}

std::string IndexBuilder::spill_path(std::size_t shard) const {
  return out_path_ + ".shard" + std::to_string(shard) + ".spill";
}

void IndexBuilder::discard() {
  spills_.clear();  // closes any open spill streams first
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    std::remove(spill_path(s).c_str());
  }
  std::remove(out_path_.c_str());
  active_ = false;
}

void IndexBuilder::begin(const std::string& out_path) {
  if (active_) throw std::logic_error("IndexBuilder::begin called twice");
  out_path_ = out_path;
  keys_seen_ = 0;
  spills_.clear();
  try {
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      spills_.emplace_back(spill_path(s),
                           std::ios::binary | std::ios::trunc);
      if (!spills_.back()) {
        throw std::runtime_error("cannot open spill file " + spill_path(s));
      }
    }
  } catch (...) {
    discard();  // drop spill files already created before the failure
    throw;
  }
  timer_.reset();
  active_ = true;
}

void IndexBuilder::add(std::string_view key) {
  if (!active_) throw std::logic_error("IndexBuilder::add before begin");
  if (key.size() > 0xFFFFFFFFull) {
    // The spill record and the index slot both carry a u32 length; a
    // silently wrapped length would desync the spill stream.
    throw std::invalid_argument("index key longer than 4 GiB - 1");
  }
  const std::uint64_t hash = util::hash64(key, kIndexHashSeed);
  std::ofstream& spill = spills_[hash % spills_.size()];
  const auto len = static_cast<std::uint32_t>(key.size());
  spill.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
  spill.write(reinterpret_cast<const char*>(&len), sizeof(len));
  if (!key.empty()) {
    spill.write(key.data(), static_cast<std::streamsize>(key.size()));
  }
  ++keys_seen_;
}

IndexBuildStats IndexBuilder::finish() {
  if (!active_) throw std::logic_error("IndexBuilder::finish before begin");
  // Any failure below leaves no spill or partial-index litter behind and
  // resets the builder for a fresh begin().
  try {
    return finish_impl();
  } catch (...) {
    discard();
    throw;
  }
}

IndexBuildStats IndexBuilder::finish_impl() {
  for (auto& spill : spills_) {
    spill.flush();
    if (!spill) throw std::runtime_error("spill write failed for " + out_path_);
    spill.close();
  }

  std::ofstream out(out_path_, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open index file " + out_path_);

  // Placeholder header + directory; patched once the payload offsets are
  // known. Everything after this point is append-only.
  const std::size_t dir_bytes = config_.num_shards * kIndexDirEntryBytes;
  std::string zeros(kIndexHeaderBytes + dir_bytes, '\0');
  out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));

  IndexBuildStats stats;
  stats.keys_seen = keys_seen_;
  stats.shard_count = config_.num_shards;
  std::string directory;
  std::size_t cursor = kIndexHeaderBytes + dir_bytes;
  std::string scratch;
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    // Bounded memory: exactly one shard's dedup table lives at a time,
    // and emit_shard streams straight to the file.
    util::FlatStringSet table;
    {
      std::ifstream spill(spill_path(s), std::ios::binary);
      if (!spill) {
        throw std::runtime_error("cannot reopen spill file " + spill_path(s));
      }
      std::uint64_t hash = 0;
      std::uint32_t len = 0;
      while (spill.read(reinterpret_cast<char*>(&hash), sizeof(hash))) {
        if (!spill.read(reinterpret_cast<char*>(&len), sizeof(len))) {
          throw std::runtime_error("spill file truncated: " + spill_path(s));
        }
        scratch.resize(len);
        if (len > 0 && !spill.read(scratch.data(), len)) {
          throw std::runtime_error("spill file truncated: " + spill_path(s));
        }
        // The spill hash was computed with kIndexHashSeed — FlatStringSet's
        // own hashing (util::hash64 default seed) agrees by construction.
        table.insert_hashed(hash, scratch);
      }
    }
    std::remove(spill_path(s).c_str());

    const std::size_t table_offset = cursor;
    const ShardExtents extents =
        emit_shard(table, config_.max_load_factor, out);
    append_u64(directory, table_offset);
    append_u64(directory, extents.slot_count);
    append_u64(directory, table_offset + extents.slot_count * kIndexSlotBytes);
    append_u64(directory, extents.arena_bytes);
    cursor += extents.payload_bytes;
    stats.keys_distinct += table.size();
    const std::size_t shard_bytes =
        table.memory_bytes() + extents.transient_bytes;
    if (shard_bytes > stats.peak_shard_bytes) {
      stats.peak_shard_bytes = shard_bytes;
    }
  }
  stats.file_bytes = cursor;

  std::string header;
  header.append(kIndexMagic, 8);
  append_u64(header, kIndexFormatVersion);
  append_u64(header, kIndexHashSeed);
  append_u64(header, config_.num_shards);
  append_u64(header, stats.keys_distinct);
  append_u64(header, stats.file_bytes);
  out.seekp(0);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(directory.data(), static_cast<std::streamsize>(directory.size()));
  out.flush();
  if (!out) throw std::runtime_error("index write failed for " + out_path_);

  active_ = false;
  spills_.clear();
  stats.seconds = timer_.elapsed_seconds();  // spans begin() -> here
  return stats;
}

IndexBuildStats IndexBuilder::build(const std::vector<std::string>& keys,
                                    const std::string& out_path,
                                    IndexBuilderConfig config) {
  IndexBuilder builder(config);
  builder.begin(out_path);
  for (const std::string& key : keys) builder.add(key);
  return builder.finish();
}

IndexBuildStats IndexBuilder::build_wordlist(std::istream& words,
                                             const std::string& out_path,
                                             IndexBuilderConfig config) {
  IndexBuilder builder(config);
  builder.begin(out_path);
  std::string line;
  while (std::getline(words, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    builder.add(line);
  }
  return builder.finish();
}

// ---------------------------------------------------------- MappedMatcher

MappedMatcher::MappedMatcher(const std::string& index_path)
    : file_(index_path) {
  const unsigned char* base = file_.data();
  const std::size_t size = file_.size();
  if (size < kIndexHeaderBytes) corrupt(index_path, "file truncated (no header)");
  if (std::memcmp(base, kIndexMagic, 8) != 0) {
    corrupt(index_path, "bad magic (not a matcher index)");
  }
  const std::uint64_t version = load_u64(base + 8);
  if (version != kIndexFormatVersion) {
    corrupt(index_path, "unsupported format version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kIndexFormatVersion) + ")");
  }
  const std::uint64_t seed = load_u64(base + 16);
  if (seed != kIndexHashSeed) {
    corrupt(index_path, "hash seed mismatch (index built with a different "
                        "hash seed than this binary probes with)");
  }
  const std::uint64_t shard_count = load_u64(base + 24);
  key_count_ = static_cast<std::size_t>(load_u64(base + 32));
  const std::uint64_t declared_bytes = load_u64(base + 40);
  if (declared_bytes != size) {
    corrupt(index_path, "file truncated (header declares " +
                            std::to_string(declared_bytes) + " bytes, file has " +
                            std::to_string(size) + ")");
  }
  if (shard_count == 0 || shard_count > (std::uint64_t{1} << 24)) {
    corrupt(index_path, "implausible shard count " +
                            std::to_string(shard_count));
  }
  if (kIndexHeaderBytes + shard_count * kIndexDirEntryBytes > size) {
    corrupt(index_path, "file truncated (directory out of range)");
  }

  shards_.resize(static_cast<std::size_t>(shard_count));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const unsigned char* dir =
        base + kIndexHeaderBytes + s * kIndexDirEntryBytes;
    const std::uint64_t table_offset = load_u64(dir);
    const std::uint64_t slot_count = load_u64(dir + 8);
    const std::uint64_t arena_offset = load_u64(dir + 16);
    const std::uint64_t arena_bytes = load_u64(dir + 24);
    if (slot_count != 0 && (slot_count & (slot_count - 1)) != 0) {
      corrupt(index_path, "shard " + std::to_string(s) +
                              " slot count is not a power of two");
    }
    if (table_offset > size || slot_count > (size - table_offset) / kIndexSlotBytes) {
      corrupt(index_path, "file truncated (shard " + std::to_string(s) +
                              " table out of range)");
    }
    if (arena_offset > size || arena_bytes > size - arena_offset) {
      corrupt(index_path, "file truncated (shard " + std::to_string(s) +
                              " arena out of range)");
    }
    ShardView view;
    view.table = base + table_offset;
    view.slot_count = static_cast<std::size_t>(slot_count);
    view.arena = base + arena_offset;
    view.arena_bytes = static_cast<std::size_t>(arena_bytes);
    shards_[s] = view;
  }
  shard_end_ = shards_.size();
  file_.advise_random();
}

MappedMatcher::MappedMatcher(const std::string& index_path,
                             std::size_t shard_begin, std::size_t shard_end)
    : MappedMatcher(index_path) {
  if (shard_begin >= shard_end || shard_end > shards_.size()) {
    throw std::invalid_argument(
        "MappedMatcher: invalid shard range [" +
        std::to_string(shard_begin) + ", " + std::to_string(shard_end) +
        ") for " + std::to_string(shards_.size()) + " shards");
  }
  shard_begin_ = shard_begin;
  shard_end_ = shard_end;
  // The header's key count covers the whole file; a range view reports
  // only its own shards' keys so matched_percent keeps its denominator.
  key_count_ = 0;
  for (std::size_t s = shard_begin_; s < shard_end_; ++s) {
    const ShardView& shard = shards_[s];
    for (std::size_t i = 0; i < shard.slot_count; ++i) {
      const unsigned char* slot = shard.table + i * kIndexSlotBytes;
      if (load_u64(slot + 8) != 0) ++key_count_;
    }
  }
}

bool MappedMatcher::probe_shard(const ShardView& shard, std::uint64_t hash,
                                std::string_view key) const {
  if (shard.slot_count == 0) return false;
  const std::size_t mask = shard.slot_count - 1;
  std::size_t i = probe_start(hash, mask);
  for (std::size_t probes = 0; probes <= mask; ++probes) {
    const unsigned char* slot = shard.table + i * kIndexSlotBytes;
    const std::uint64_t offset_plus_one = load_u64(slot + 8);
    if (offset_plus_one == 0) return false;
    if (load_u64(slot) == hash) {
      const std::uint64_t offset = offset_plus_one - 1;
      const std::uint32_t length = load_u32(slot + 16);
      if (offset > shard.arena_bytes ||
          length > shard.arena_bytes - offset) {
        corrupt(file_.path(), "slot key extent out of range");
      }
      if (length == key.size() &&
          (length == 0 ||
           std::memcmp(shard.arena + offset, key.data(), length) == 0)) {
        return true;
      }
    }
    i = (i + 1) & mask;
  }
  // A well-formed table keeps load < 1, so a full scan without an empty
  // slot means the file lied about its load factor.
  corrupt(file_.path(), "slot table has no empty slot");
}

bool MappedMatcher::contains(const std::string& password) const {
  const std::uint64_t hash = util::hash64(password, kIndexHashSeed);
  const std::size_t shard = hash % shards_.size();
  if (shard < shard_begin_ || shard >= shard_end_) return false;
  return probe_shard(shards_[shard], hash, password);
}

std::string MappedMatcher::name() const {
  std::string name = "mapped(" + std::to_string(shards_.size()) + ")";
  if (shard_begin_ != 0 || shard_end_ != shards_.size()) {
    name += "[" + std::to_string(shard_begin_) + "," +
            std::to_string(shard_end_) + ")";
  }
  return name;
}

void MappedMatcher::contains_batch(const std::vector<std::string>& batch,
                                   util::ThreadPool* pool,
                                   std::vector<char>& out) const {
  out.assign(batch.size(), 0);
  const bool parallel = pool != nullptr && pool->size() > 1 &&
                        shards_.size() > 1 &&
                        batch.size() >= kParallelBatchThreshold;
  if (parallel) {
    // Hash each key once, then submit one task per shard; a task writes
    // only the batch indices its shard owns, so writes never collide and
    // each task's page faults stay within one shard's slice of the file.
    // submit() + wait_all rather than a second parallel_for so shard scans
    // interleave with whatever else is on the pool (other sessions'
    // matching, tracker folds) at task granularity, and the wait lends the
    // calling thread back to the pool.
    std::vector<std::uint64_t> hashes(batch.size());
    pool->parallel_for(batch.size(), [&](std::size_t i) {
      hashes[i] = util::hash64(batch[i], kIndexHashSeed);
    });
    std::vector<std::future<void>> scans;
    scans.reserve(shard_end_ - shard_begin_);
    for (std::size_t s = shard_begin_; s < shard_end_; ++s) {
      scans.push_back(pool->submit([&, s] {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (hashes[i] % shards_.size() == s &&
              probe_shard(shards_[s], hashes[i], batch[i])) {
            out[i] = 1;
          }
        }
      }));
    }
    pool->wait_all(scans);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = contains(batch[i]) ? 1 : 0;
    }
  }
}

}  // namespace passflow::guessing
