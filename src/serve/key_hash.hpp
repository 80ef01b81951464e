// The word-wise hash behind the frame checksum and the topology key.
//
// A cold federated request carries a canonical topology key of up to
// 32 KB. Every process hop hashes it once, with topology_key_hash, and
// passes the hash along with the bytes: the router places the key on
// the shard ring with it and hands it to the colocated cache probe, and
// a shard's SolveCache stores it in the entry, so find-after-miss,
// insert and LRU eviction never read the key again to hash it.
//
// HashedKey owns a key's bytes and its hash; KeyRef views them. Both
// convert implicitly from bare bytes by hashing them, so a call site
// that has only the bytes still compiles and pays one hash.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "codec/bytes.hpp"

namespace dls::serve {

/// FNV-1a-64 over the little-endian 64-bit words of `data`, then a
/// bytewise FNV-1a-64 tail; no finaliser. One multiply per 8 bytes
/// instead of per byte. Words are assembled little-endian explicitly,
/// so the value is the same on every platform. frame_checksum folds it
/// to 32 bits; topology_key_hash finishes it with fmix64.
std::uint64_t fnv1a64_words(std::span<const std::uint8_t> data) noexcept;

/// The ring-placement and cache-index hash of a key:
/// fmix64(fnv1a64_words(key)). The finaliser spreads the last word's
/// bits over the whole hash, so keys that differ only in their tail
/// land far apart on the ring and in the table.
std::uint64_t topology_key_hash(std::span<const std::uint8_t> key) noexcept;

/// Key bytes and their topology_key_hash, computed once.
struct HashedKey {
  codec::Bytes bytes;
  std::uint64_t hash = 0;

  HashedKey() = default;
  /// Implicit: hashes `key` once.
  HashedKey(codec::Bytes key)
      : bytes(std::move(key)), hash(topology_key_hash(bytes)) {}
};

/// A view of key bytes with their topology_key_hash. The tables built
/// on it (KeyRefHash) hash by returning `hash`, and compare bytes only
/// when the hashes match.
struct KeyRef {
  std::span<const std::uint8_t> bytes;
  std::uint64_t hash = 0;

  /// Implicit: hashes `key` once.
  KeyRef(const codec::Bytes& key) noexcept
      : bytes(key), hash(topology_key_hash(key)) {}
  /// Implicit and free: the hash is already known.
  KeyRef(const HashedKey& key) noexcept
      : bytes(key.bytes), hash(key.hash) {}
  /// `key_hash` must be topology_key_hash(key).
  KeyRef(std::span<const std::uint8_t> key, std::uint64_t key_hash) noexcept
      : bytes(key), hash(key_hash) {}

  friend bool operator==(KeyRef a, KeyRef b) noexcept {
    return a.hash == b.hash && a.bytes.size() == b.bytes.size() &&
           (a.bytes.data() == b.bytes.data() || a.bytes.empty() ||
            std::memcmp(a.bytes.data(), b.bytes.data(), a.bytes.size()) ==
                0);
  }
};

inline bool operator==(const HashedKey& a, const HashedKey& b) noexcept {
  return KeyRef(a) == KeyRef(b);
}

/// Hash-table hasher over KeyRef: the stored hash, no byte reads.
struct KeyRefHash {
  std::size_t operator()(KeyRef key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

}  // namespace dls::serve
