// LRU memo of Algorithm-1 solutions keyed by canonical topology bytes.
//
// The scheduling service sees heavy repetition — the same chain with
// the same bids re-submitted by many clients — and Algorithm 1 is
// deterministic, so a solved instance can be replayed bit-identically.
// Keys are serve::canonical_topology_key encodings (the (w, z) vectors
// and nothing else); values are shared immutable solutions, so a hit
// costs one map lookup and a list splice while the solver stays cold.
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
#include <string>
#include <unordered_map>

#include "codec/bytes.hpp"
#include "dlt/linear.hpp"
#include "obs/metrics.hpp"

namespace dls::serve {

class SolveCache {
 public:
  using Value = std::shared_ptr<const dlt::LinearSolution>;

  /// `capacity` is the maximum number of resident solutions; 0 disables
  /// the cache entirely (every lookup misses, inserts are dropped).
  explicit SolveCache(std::size_t capacity);

  /// Returns the cached solution and promotes it to most-recently-used,
  /// or nullptr on a miss.
  Value lookup(const codec::Bytes& key);

  /// Inserts (or touches) `key`. Evicts the least-recently-used entry
  /// when full. Re-inserting an existing key keeps the resident value —
  /// the solver is deterministic, so both values are identical.
  void insert(const codec::Bytes& key, Value value);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  std::uint64_t evictions() const noexcept { return evictions_.value(); }

 private:
  struct Entry {
    std::string key;
    Value value;
  };
  using EntryList = std::list<Entry>;

  static std::string_view view_of(const codec::Bytes& key) {
    return {reinterpret_cast<const char*>(key.data()), key.size()};
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  EntryList lru_;  ///< front = most recently used
  std::unordered_map<std::string_view, EntryList::iterator> index_;
  obs::InstanceCounter hits_{"serve.cache.hits"};
  obs::InstanceCounter misses_{"serve.cache.misses"};
  obs::InstanceCounter evictions_{"serve.cache.evictions"};
};

}  // namespace dls::serve
