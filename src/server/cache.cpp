#include "server/cache.hpp"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "io/problem_io.hpp"

namespace netalign::server {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string content_key(std::string_view problem_text) {
  static const char* hex = "0123456789abcdef";
  std::uint64_t h = fnv1a64(problem_text);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

ProblemCache::ProblemCache(std::size_t capacity, obs::Counters* counters)
    : capacity_(capacity), counters_(counters) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ProblemCache: capacity must be >= 1");
  }
}

std::shared_ptr<const CachedProblem> ProblemCache::get(const std::string& key,
                                                       const std::string& text,
                                                       bool& hit) {
  return get(key, text, SquaresBackendOptions{}, hit);
}

std::shared_ptr<const CachedProblem> ProblemCache::get(
    const std::string& key, const std::string& text,
    const SquaresBackendOptions& options, bool& hit) {
  // The mode is a second key dimension: an implicit and an explicit
  // build of the same bytes are different cached objects. The composite
  // stays internal -- job keys and journal records carry only `key`.
  const std::string mode = to_string(options.mode);
  const std::string composite = key + "#" + mode;
  std::promise<std::shared_ptr<const CachedProblem>> promise;
  Future future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = map_.find(composite); it != map_.end()) {
      hit = true;
      if (counters_ != nullptr) counters_->add_concurrent("server.cache_hit");
      lru_.splice(lru_.begin(), lru_, it->second.pos);  // touch
      future = it->second.future;
    } else {
      hit = false;
      builder = true;
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.cache_miss");
      }
      future = promise.get_future().share();
      lru_.push_front(composite);
      map_.emplace(composite, Entry{future, lru_.begin()});
      while (map_.size() > capacity_) {
        // The new entry is at the front and capacity >= 1, so the back is
        // always some other, least-recently-used key.
        const std::string victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
        if (counters_ != nullptr) {
          counters_->add_concurrent("server.cache_evicted");
        }
      }
    }
  }
  if (builder) {
    // Parse + squares build happen outside the lock so distinct problems
    // build concurrently; same-key requests block on the shared future.
    try {
      auto built = std::make_shared<CachedProblem>();
      built->key = key;
      built->mode = mode;
      built->problem = read_problem(std::string_view(text));
      // The problem is in its final location (inside the shared_ptr-owned
      // struct) before the backend is built: an implicit backend pins the
      // problem by pointer, so it must not move afterwards.
      built->squares = build_squares_backend(built->problem, options);
      promise.set_value(std::move(built));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Do not cache failures: drop the entry so a corrected resubmission
      // with a colliding key is not poisoned.
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto it = map_.find(composite); it != map_.end()) {
        lru_.erase(it->second.pos);
        map_.erase(it);
      }
    }
  }
  return future.get();  // rethrows the build error for every waiter
}

std::size_t ProblemCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

}  // namespace netalign::server
