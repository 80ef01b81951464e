// Consistent-hash shard map over the canonical (w, z) keyspace.
//
// The federation tier partitions problem instances across N
// SchedulerService shards on a virtual-node ring (`vnodes` points per
// shard). Two hashes meet on the ring:
//  * vnode points are shard_hash (bytewise FNV-1a-64) of the
//    (shard, vnode) index pair, so the ring and its arcs are fixed by
//    the shard count and vnode count alone;
//  * a key's position is its topology_key_hash (word-wise FNV-1a-64
//    plus fmix64, key_hash.hpp), the same hash a shard's SolveCache
//    indexes the key by, so each hop hashes a key once. The key hash
//    replaced bytewise FNV-1a-64 of the whole key (about 4 cycles per
//    byte, 54 µs on a 32 KB key): a given key may now sit on a
//    different shard than before, while every answer stays
//    byte-identical.
// Ownership of a key is the first alive shard clockwise from the key's
// ring position; replication walks further clockwise collecting the
// next distinct alive shards. Marking a shard dead therefore moves
// *only that shard's* arc onto its ring successors — the
// consistent-hash rebalance — while every other key keeps its owner,
// which is what keeps the per-shard solve caches warm across failures.
//
// ShardMap is a passive data structure (no locking, no I/O); the
// ShardRouter guards it with its health mutex and drives alive-ness
// from the heartbeat-style failure accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/key_hash.hpp"

namespace dls::serve {

/// Bytewise FNV-1a 64 — the vnode-point hash. Stable across platforms so
/// the ring is reproducible in tests and across processes.
std::uint64_t shard_hash(std::span<const std::uint8_t> data) noexcept;

struct ShardMapConfig {
  /// Virtual nodes per shard. More vnodes → smoother key distribution
  /// and finer-grained rebalance arcs, at ring-size cost.
  std::size_t vnodes = 64;
};

class ShardMap {
 public:
  explicit ShardMap(std::size_t shard_count,
                    ShardMapConfig config = ShardMapConfig{});

  std::size_t shard_count() const noexcept { return alive_.size(); }
  std::size_t alive_count() const noexcept;

  bool alive(std::size_t shard) const;
  /// Flips a shard's liveness. Returns true when the flag changed (the
  /// caller counts rebalances off these edges).
  bool set_alive(std::size_t shard, bool alive);

  /// The first `replicas` *distinct alive* shards clockwise from the
  /// key's ring position: owners[0] is the primary, the rest are
  /// replica holders. Shorter than `replicas` when fewer shards are
  /// alive; empty when none are. Bare key bytes convert to a KeyRef by
  /// hashing; a HashedKey passes the hash it already carries.
  std::vector<std::size_t> owners(KeyRef key, std::size_t replicas) const;

  /// owners(key, 1) without the vector: the primary alive shard, or
  /// shard_count() when everything is dead.
  std::size_t primary(KeyRef key) const;

 private:
  struct VNode {
    std::uint64_t point;
    std::uint32_t shard;
  };

  /// Index into ring_ of the first vnode at/after `key_hash` (wrapping),
  /// ignoring liveness.
  std::size_t ring_start(std::uint64_t key_hash) const;

  std::vector<VNode> ring_;  ///< sorted by point
  std::vector<bool> alive_;
};

}  // namespace dls::serve
