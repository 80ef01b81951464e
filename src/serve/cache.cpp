#include "serve/cache.hpp"

namespace dls::serve {

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {}

SolveCache::Value SolveCache::lookup(KeyRef key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.add();
  return it->second->value;
}

void SolveCache::insert(HashedKey key, Value value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Deterministic solver: the resident value equals the offered one.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.add();
  }
  lru_.push_front(Entry{std::move(key), std::move(value)});
  index_.emplace(lru_.front().key, lru_.begin());
}

std::size_t SolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace dls::serve
