#include "serve/key_hash.hpp"

namespace dls::serve {

std::uint64_t fnv1a64_words(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a-64 offset basis
  constexpr std::uint64_t kPrime = 1099511628211ull;  // FNV-1a-64 prime
  const std::uint8_t* cursor = data.data();
  const std::size_t words = data.size() / 8;
  for (std::size_t i = 0; i < words; ++i, cursor += 8) {
    // Compiles to one load on little-endian targets.
    std::uint64_t chunk = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(cursor[b]) << (8 * b);
    }
    hash = (hash ^ chunk) * kPrime;
  }
  for (std::size_t b = words * 8; b < data.size(); ++b) {
    hash = (hash ^ data[b]) * kPrime;
  }
  return hash;
}

std::uint64_t topology_key_hash(std::span<const std::uint8_t> key) noexcept {
  // MurmurHash3's fmix64.
  std::uint64_t hash = fnv1a64_words(key);
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

}  // namespace dls::serve
