// LRU memo of Algorithm-1 solutions keyed by canonical topology bytes.
//
// The scheduling service sees heavy repetition — the same chain with
// the same bids re-submitted by many clients — and Algorithm 1 is
// deterministic, so a solved instance can be replayed bit-identically.
// Keys are serve::canonical_topology_key encodings (the (w, z) vectors
// and nothing else); values are shared immutable solutions, so a hit
// costs one map lookup and a list splice while the solver stays cold.
// Each entry keeps its key's topology_key_hash (key_hash.hpp), and the
// index hashes by returning it: a lookup hashes nothing the caller has
// not hashed already, and insert and LRU eviction never re-read a key
// to hash it. Keys whose hashes collide stay distinct entries, told
// apart by their bytes.
//
// Thread-safe: every map operation takes the internal mutex. Hit/miss/
// evict counts are per-instance obs::InstanceCounters (readable
// regardless of the obs runtime switch, without the mutex) mirrored
// into the serve.cache.* metrics.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dlt/linear.hpp"
#include "obs/metrics.hpp"
#include "serve/key_hash.hpp"

namespace dls::serve {

class SolveCache {
 public:
  using Value = std::shared_ptr<const dlt::LinearSolution>;

  /// `capacity` is the maximum number of resident solutions; 0 disables
  /// the cache entirely (every lookup misses, inserts are dropped).
  explicit SolveCache(std::size_t capacity);

  /// Returns the cached solution and promotes it to most-recently-used,
  /// or nullptr on a miss. Bare key bytes convert to a KeyRef by
  /// hashing them once.
  Value lookup(KeyRef key);

  /// Inserts (or touches) `key`, moving its bytes into the entry.
  /// Evicts the least-recently-used entry when full. Re-inserting an
  /// existing key keeps the resident value — the solver is
  /// deterministic, so both values are identical.
  void insert(HashedKey key, Value value);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  std::uint64_t evictions() const noexcept { return evictions_.value(); }

 private:
  struct Entry {
    HashedKey key;
    Value value;
  };
  using EntryList = std::list<Entry>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  EntryList lru_;  ///< front = most recently used
  /// Views each entry's own key bytes and stored hash.
  std::unordered_map<KeyRef, EntryList::iterator, KeyRefHash> index_;
  obs::InstanceCounter hits_{"serve.cache.hits"};
  obs::InstanceCounter misses_{"serve.cache.misses"};
  obs::InstanceCounter evictions_{"serve.cache.evictions"};
};

}  // namespace dls::serve
