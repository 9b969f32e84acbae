// LRU cache of resident topologies for the batch-serving loop.
//
// The serving stream interleaves full tree records (which define a topology
// plus its base scenario) with lightweight scenario-delta records that
// reference an earlier topology by key.  Keeping the hot topologies
// resident turns the per-request work into an O(N) scenario fork plus the
// solve itself — no re-parsing, no structure rebuilding.  Eviction is
// safe at any time: topologies are handed out as shared_ptr, so in-flight
// solves keep an evicted structure alive until they finish.
//
// Thread-safe: the serving loop's reader thread registers topologies while
// pool workers may still hold references from earlier requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "solver/session.h"
#include "tree/scenario.h"
#include "tree/topology.h"

namespace treeplace::serve {

/// Typed cache key: a topology key (the stream's ordinal "1", "2", ...)
/// scoped by a namespace.  The single-stream server uses namespace 0; the
/// TCP front-end namespaces by connection (uid, or the stable hash of the
/// client's hello name), which is what lets every connection see the same
/// ordinal keys a fresh stream would.  The same key identifies the entry
/// in the shard router's hash ring and in on-disk snapshot file names, so
/// a named session migrates shards or restarts under one identity.
struct CacheKey {
  std::uint64_t namespace_id = 0;
  std::string topology_key;

  bool operator==(const CacheKey&) const = default;

  /// Stable (process-independent) hash: FNV-1a over the key bytes mixed
  /// with the namespace, shared by the cache map and the shard ring.
  std::uint64_t hash() const;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key.hash());
  }
};

/// A resident topology with the base scenario its defining tree record
/// carried, plus the warm-start SolveSession bound to this topology's
/// lifetime in the cache.  Scenario-delta requests fork the base (a cheap
/// flat-array copy), apply their edits on top, and solve through the
/// session so unchanged subtree tables are reused.  Eviction drops the
/// cache's reference; in-flight solves keep the session alive via their
/// own shared_ptr until they finish.
struct CachedTopology {
  std::shared_ptr<const Topology> topology;
  Scenario base;
  std::shared_ptr<SolveSession> session;
};

struct TopologyCacheStats {
  std::size_t capacity = 0;
  std::size_t size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Aggregated over the *resident* sessions (warm-start byte budget,
  /// SolveSession::Options::max_bytes): bytes held after the last warm
  /// solve, and how much state the budget has shed so far.
  std::uint64_t session_bytes = 0;
  std::uint64_t session_snapshots_dropped = 0;
  std::uint64_t session_tables_dropped = 0;
  /// Output cells spliced by lazy root-path joins across resident
  /// sessions (see core/merge_kernel.h) — warm-solve work avoided.
  std::uint64_t session_cells_skipped = 0;
};

class TopologyCache {
 public:
  /// A cache holding at most `capacity` topologies (>= 1).  Every session
  /// created by put() inherits `session_options` — in particular the
  /// per-session byte budget that lets one cache hold many more warm
  /// topologies than unbounded sessions would.
  explicit TopologyCache(std::size_t capacity,
                         SolveSession::Options session_options = {});

  /// Inserts (or replaces) the entry under `key` and marks it most
  /// recently used, evicting the least recently used entry when full.
  /// A fresh SolveSession is created for the entry (replacing any prior
  /// one — a re-registered topology starts cold); the returned pointer is
  /// the entry's session, for callers that solve the defining tree record
  /// itself through it.
  std::shared_ptr<SolveSession> put(const CacheKey& key,
                                    std::shared_ptr<const Topology> topology,
                                    Scenario base);

  /// The entry under `key` (marked most recently used), or nullopt.  The
  /// returned copy IS the request's scenario fork: the caller owns it and
  /// may mutate it freely.
  std::optional<CachedTopology> get(const CacheKey& key);

  bool contains(const CacheKey& key) const;
  std::size_t size() const;
  TopologyCacheStats stats() const;

  /// Visits every resident entry under the cache mutex (recency order is
  /// untouched).  The shard drain path uses this to snapshot named
  /// sessions to disk; keep `fn` cheap or call at quiescent points only.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::scoped_lock lock(mutex_);
    for (const auto& [key, entry] : entries_) fn(key, entry.value);
  }

 private:
  // Keys in recency order, most recent first; the map points into the list.
  struct Entry {
    CachedTopology value;
    std::list<CacheKey>::iterator recency;
  };

  void touch(Entry& entry);  // requires mutex_ held

  const std::size_t capacity_;
  const SolveSession::Options session_options_;
  mutable std::mutex mutex_;
  std::list<CacheKey> recency_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_;
  TopologyCacheStats stats_;
};

}  // namespace treeplace::serve
