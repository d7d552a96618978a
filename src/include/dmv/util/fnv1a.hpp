#pragma once

// FNV-1a 64: program hashes, config fingerprints, artifact keys, the
// interner's structural hashes and the store's checksums all build on
// this step. Some of them name files on disk, so it must never change.

#include <cstdint>
#include <string_view>

namespace dmv::util {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a step: xor `value` into the state, then multiply by the
/// prime. Callers choose what a value is: a byte, or a whole word.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// FNV-1a over the bytes of `text`, one step per byte.
constexpr std::uint64_t fnv1a_string(std::string_view text) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : text) hash = fnv1a(hash, static_cast<unsigned char>(c));
  return hash;
}

}  // namespace dmv::util
