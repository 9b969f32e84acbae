#include "serve/topology_cache.h"

#include <utility>

#include "serve/router.h"
#include "support/check.h"

namespace treeplace::serve {

std::uint64_t CacheKey::hash() const {
  // Mix the namespace through splitmix64 so consecutive connection uids
  // spread over the ring, then fold in the key bytes' FNV-1a hash.
  return mix_hash64(namespace_id ^ stable_hash64(topology_key));
}

TopologyCache::TopologyCache(std::size_t capacity,
                             SolveSession::Options session_options)
    : capacity_(capacity), session_options_(session_options) {
  TREEPLACE_CHECK_MSG(capacity >= 1, "TopologyCache capacity must be >= 1");
  stats_.capacity = capacity;
}

std::shared_ptr<SolveSession> TopologyCache::put(
    const CacheKey& key, std::shared_ptr<const Topology> topology,
    Scenario base) {
  TREEPLACE_CHECK_MSG(topology != nullptr, "caching a null topology");
  TREEPLACE_CHECK_MSG(base.topology_ptr() == topology,
                      "base scenario belongs to a different topology");
  auto session = std::make_shared<SolveSession>(topology, session_options_);
  std::scoped_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.value =
        CachedTopology{std::move(topology), std::move(base), session};
    touch(it->second);
    return session;
  }
  if (entries_.size() >= capacity_) {
    // Evict the least recently used entry (the recency list's tail).
    const CacheKey& victim = recency_.back();
    entries_.erase(victim);
    recency_.pop_back();
    ++stats_.evictions;
  }
  recency_.push_front(key);
  entries_.emplace(
      key, Entry{CachedTopology{std::move(topology), std::move(base), session},
                 recency_.begin()});
  return session;
}

std::optional<CachedTopology> TopologyCache::get(const CacheKey& key) {
  std::scoped_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  touch(it->second);
  return it->second.value;  // copy: the caller's scenario fork
}

bool TopologyCache::contains(const CacheKey& key) const {
  std::scoped_lock lock(mutex_);
  return entries_.count(key) > 0;
}

std::size_t TopologyCache::size() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

TopologyCacheStats TopologyCache::stats() const {
  std::scoped_lock lock(mutex_);
  TopologyCacheStats out = stats_;
  out.size = entries_.size();
  for (const auto& [key, entry] : entries_) {
    const SolveSession::Stats s = entry.value.session->stats();
    out.session_bytes += s.bytes_resident;
    out.session_snapshots_dropped += s.snapshots_dropped;
    out.session_tables_dropped += s.tables_dropped;
    out.session_cells_skipped += s.cells_skipped;
  }
  return out;
}

void TopologyCache::touch(Entry& entry) {
  recency_.splice(recency_.begin(), recency_, entry.recency);
  entry.recency = recency_.begin();
}

}  // namespace treeplace::serve
