// Fast 64-bit string hashing shared by the guessing engine's probabilistic
// and sharded data structures (cardinality sketch, flat string set, exact
// tracker and disk-index shards).
//
// std::hash<std::string> is avoided here on purpose: its value is
// implementation-defined, so anything persisted (session checkpoints,
// sketch registers) or sharded by it would not be stable across standard
// libraries. This hash is a fixed algorithm — 8-byte lanes folded with
// multiply-xor mixing, murmur3-style finalizer — so hashes are identical on
// every platform, which keeps saved sketches loadable anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace passflow::util {

// Murmur3 fmix64: full-avalanche finalizer. Also useful on its own to
// decorrelate values that will be reduced to a few bits (shard selection).
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t hash64(const void* data, std::size_t len,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(len) *
                            0x9ddfea08eb382d69ULL);
  while (len >= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p, 8);
    h = (h ^ mix64(lane)) * 0x9ddfea08eb382d69ULL;
    p += 8;
    len -= 8;
  }
  std::uint64_t tail = 0;
  if (len > 0) {
    std::memcpy(&tail, p, len);
    h = (h ^ mix64(tail ^ len)) * 0x9ddfea08eb382d69ULL;
  }
  return mix64(h);
}

inline std::uint64_t hash64(std::string_view s,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
  return hash64(s.data(), s.size(), seed);
}

}  // namespace passflow::util
