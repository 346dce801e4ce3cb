// 64-bit FNV-1a over byte strings: the identity hash behind the sweep
// journal fingerprint, the result-cache key and the campaign fingerprint.
// Those values live on disk, so the function must never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace pf {

inline constexpr uint64_t kFnv1aOffsetBasis = 1469598103934665603ull;

/// Fold `bytes` into `hash`. Hash several fields unambiguously by folding
/// a separator after each: fnv1a("\x1f", fnv1a(field, hash)).
inline uint64_t fnv1a(std::string_view bytes,
                      uint64_t hash = kFnv1aOffsetBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace pf
