#include "solver/session.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/dp_snapshot.h"
#include "solver/solver.h"
#include "support/binio.h"
#include "support/check.h"

namespace treeplace {

namespace {

/// One sheddable unit of cached DP state, ranked coldest-first (fewest
/// invalidations since the session started) so rarely-updated subtrees pay
/// the recompute and the hot set — whose tables are rebuilt and reused on
/// every solve — survives.  Size breaks ties largest-first to free the
/// most bytes per eviction.  Root-path nodes are dirtied by every delta
/// below them, so they rank hottest and are shed last.
struct Shedding {
  std::uint64_t hotness = 0;  ///< times the node was dirtied (SubtreeCache)
  std::size_t bytes = 0;
  std::size_t node = 0;
  int cache = 0;  ///< index into the per-session cache list

  friend bool operator<(const Shedding& a, const Shedding& b) {
    if (a.hotness != b.hotness) return a.hotness < b.hotness;  // coldest first
    if (a.bytes != b.bytes) return a.bytes > b.bytes;          // largest first
    if (a.cache != b.cache) return a.cache < b.cache;
    return a.node < b.node;
  }
};

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

double to_seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

template <typename Cache>
std::size_t cache_bytes(Cache& cache) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cache.size(); ++i) total += cache.state_bytes(i);
  return total;
}

}  // namespace

SolveSession::SolveSession(std::shared_ptr<const Topology> topology)
    : SolveSession(std::move(topology), Options()) {}

SolveSession::SolveSession(std::shared_ptr<const Topology> topology,
                           Options options)
    : topology_(std::move(topology)), options_(options) {
  TREEPLACE_CHECK_MSG(topology_ != nullptr,
                      "SolveSession over a null topology");
}

dp::PowerSubtreeCache& SolveSession::power_cache(const std::string& key) {
  std::scoped_lock lock(caches_mutex_);
  auto& slot = power_caches_[key];
  if (!slot) slot = std::make_unique<dp::PowerSubtreeCache>();
  return *slot;
}

dp::MinCostSubtreeCache& SolveSession::min_cost_cache(const std::string& key) {
  std::scoped_lock lock(caches_mutex_);
  auto& slot = min_cost_caches_[key];
  if (!slot) slot = std::make_unique<dp::MinCostSubtreeCache>();
  return *slot;
}

SolveSession::Stats SolveSession::stats() const {
  Stats stats;
  stats.warm_solves = warm_solves_.load();
  stats.cold_solves = cold_solves_.load();
  stats.nodes_recomputed = nodes_recomputed_.load();
  stats.nodes_reused = nodes_reused_.load();
  stats.merge_steps = merge_steps_.load();
  stats.signatures_checked = signatures_checked_.load();
  stats.cells_skipped = cells_skipped_.load();
  stats.bytes_resident = bytes_resident_.load();
  stats.snapshots_dropped = snapshots_dropped_.load();
  stats.tables_dropped = tables_dropped_.load();
  stats.labels = labels_.load();
  for (std::size_t p = 0; p < kPowerPhases.size(); ++p) {
    stats.phases.*kPowerPhases[p] = to_seconds(phase_ns_[p].load());
  }
  return stats;
}

void SolveSession::record_warm(std::uint64_t nodes_recomputed,
                               std::uint64_t nodes_reused,
                               std::uint64_t merge_steps,
                               std::uint64_t signatures_checked,
                               std::uint64_t cells_skipped) {
  warm_solves_.fetch_add(1);
  nodes_recomputed_.fetch_add(nodes_recomputed);
  nodes_reused_.fetch_add(nodes_reused);
  merge_steps_.fetch_add(merge_steps);
  signatures_checked_.fetch_add(signatures_checked);
  cells_skipped_.fetch_add(cells_skipped);
  enforce_budget();
}

void SolveSession::record_warm(const PowerSolveStats& stats) {
  labels_.fetch_add(stats.labels);
  for (std::size_t p = 0; p < kPowerPhases.size(); ++p) {
    phase_ns_[p].fetch_add(to_ns(stats.phases.*kPowerPhases[p]));
  }
  record_warm(stats.nodes_recomputed, stats.nodes_reused, stats.merge_steps,
              stats.signatures_checked, /*cells_skipped=*/0);
}

void* SolveSession::attachment(std::shared_ptr<void> (*make)()) {
  std::call_once(attachment_once_, [&] { attachment_ = make(); });
  return attachment_.get();
}

void SolveSession::record_cold() { cold_solves_.fetch_add(1); }

void SolveSession::enforce_budget() {
  // Unbudgeted sessions (the default) skip the accounting walk entirely:
  // a warm solve's cost must stay proportional to its dirty set, not to
  // the cache size.  bytes_resident then reads 0 (untracked).
  if (options_.max_bytes == 0) return;

  // Snapshot the cache pointers under the map lock; their contents are
  // protected by solve_mutex_, which record_warm's caller holds.
  std::vector<dp::PowerSubtreeCache*> power;
  std::vector<dp::MinCostSubtreeCache*> min_cost;
  {
    std::scoped_lock lock(caches_mutex_);
    for (auto& [key, cache] : power_caches_) power.push_back(cache.get());
    for (auto& [key, cache] : min_cost_caches_) {
      min_cost.push_back(cache.get());
    }
  }
  std::size_t total = 0;
  for (auto* cache : power) total += cache_bytes(*cache);
  for (auto* cache : min_cost) total += cache_bytes(*cache);

  const std::size_t budget = options_.max_bytes;
  if (total > budget) {
    // Pass 1: shed merge-tree snapshots, coldest first — the node stays
    // spliceable while clean, only the O(log k) slot resume is lost.
    std::vector<Shedding> snapshots;
    for (std::size_t c = 0; c < power.size(); ++c) {
      for (std::size_t i = 0; i < power[c]->size(); ++i) {
        const std::size_t bytes = power[c]->snapshot_bytes(i);
        if (bytes > 0) {
          snapshots.push_back(
              {power[c]->dirty_count(i), bytes, i, static_cast<int>(c)});
        }
      }
    }
    const int min_cost_base = static_cast<int>(power.size());
    for (std::size_t c = 0; c < min_cost.size(); ++c) {
      for (std::size_t i = 0; i < min_cost[c]->size(); ++i) {
        const std::size_t bytes = min_cost[c]->snapshot_bytes(i);
        if (bytes > 0) {
          snapshots.push_back({min_cost[c]->dirty_count(i), bytes, i,
                               min_cost_base + static_cast<int>(c)});
        }
      }
    }
    std::sort(snapshots.begin(), snapshots.end());
    for (const Shedding& shed : snapshots) {
      if (total <= budget) break;
      if (shed.cache < min_cost_base) {
        power[static_cast<std::size_t>(shed.cache)]->drop_snapshots(shed.node);
      } else {
        min_cost[static_cast<std::size_t>(shed.cache - min_cost_base)]
            ->drop_snapshots(shed.node);
      }
      total -= std::min(total, shed.bytes);
      snapshots_dropped_.fetch_add(1);
    }

    // Pass 2: still over budget — shed whole subtree tables, coldest
    // first.  The next solve recomputes them (bit-identical, just paid
    // again).
    if (total > budget) {
      std::vector<Shedding> tables;
      for (std::size_t c = 0; c < power.size(); ++c) {
        for (std::size_t i = 0; i < power[c]->size(); ++i) {
          const std::size_t bytes = power[c]->state_bytes(i);
          if (bytes > 0) {
            tables.push_back(
                {power[c]->dirty_count(i), bytes, i, static_cast<int>(c)});
          }
        }
      }
      for (std::size_t c = 0; c < min_cost.size(); ++c) {
        for (std::size_t i = 0; i < min_cost[c]->size(); ++i) {
          const std::size_t bytes = min_cost[c]->state_bytes(i);
          if (bytes > 0) {
            tables.push_back({min_cost[c]->dirty_count(i), bytes, i,
                              min_cost_base + static_cast<int>(c)});
          }
        }
      }
      std::sort(tables.begin(), tables.end());
      for (const Shedding& shed : tables) {
        if (total <= budget) break;
        if (shed.cache < min_cost_base) {
          power[static_cast<std::size_t>(shed.cache)]->drop_state(shed.node);
        } else {
          min_cost[static_cast<std::size_t>(shed.cache - min_cost_base)]
              ->drop_state(shed.node);
        }
        total -= std::min(total, shed.bytes);
        tables_dropped_.fetch_add(1);
      }
    }
  }
  bytes_resident_.store(total);
}

std::size_t SolveSession::compact() {
  std::scoped_lock solve_lock(solve_mutex_);
  std::vector<dp::PowerSubtreeCache*> power;
  std::vector<dp::MinCostSubtreeCache*> min_cost;
  {
    std::scoped_lock lock(caches_mutex_);
    for (auto& [key, cache] : power_caches_) power.push_back(cache.get());
    for (auto& [key, cache] : min_cost_caches_) {
      min_cost.push_back(cache.get());
    }
  }
  std::size_t total = 0;
  for (auto* cache : power) {
    cache->pack_all();
    total += cache_bytes(*cache);
  }
  for (auto* cache : min_cost) {
    cache->pack_all();
    total += cache_bytes(*cache);
  }
  return total;
}

std::size_t SolveSession::resident_bytes() {
  std::scoped_lock solve_lock(solve_mutex_);
  std::vector<dp::PowerSubtreeCache*> power;
  std::vector<dp::MinCostSubtreeCache*> min_cost;
  {
    std::scoped_lock lock(caches_mutex_);
    for (auto& [key, cache] : power_caches_) power.push_back(cache.get());
    for (auto& [key, cache] : min_cost_caches_) {
      min_cost.push_back(cache.get());
    }
  }
  std::size_t total = 0;
  for (auto* cache : power) total += cache_bytes(*cache);
  for (auto* cache : min_cost) total += cache_bytes(*cache);
  return total;
}

void SolveSession::save(binio::Writer& w) {
  std::scoped_lock solve_lock(solve_mutex_);
  // Snapshot the cache pointers under the map lock, then write in sorted
  // name order so identical sessions serialize to identical bytes
  // (unordered_map iteration order is not stable).
  std::vector<std::pair<std::string, dp::PowerSubtreeCache*>> power;
  std::vector<std::pair<std::string, dp::MinCostSubtreeCache*>> min_cost;
  {
    std::scoped_lock lock(caches_mutex_);
    for (auto& [key, cache] : power_caches_) {
      if (cache->size() > 0) power.emplace_back(key, cache.get());
    }
    for (auto& [key, cache] : min_cost_caches_) {
      if (cache->size() > 0) min_cost.emplace_back(key, cache.get());
    }
  }
  std::sort(power.begin(), power.end());
  std::sort(min_cost.begin(), min_cost.end());

  w.raw(dp::kSnapshotMagic, 8);
  w.u32(dp::kSnapshotVersion);
  w.u64(topology_->structural_hash());
  w.u64(topology_->num_internal());
  w.u32(static_cast<std::uint32_t>(power.size()));
  for (auto& [name, cache] : power) {
    w.str(name);
    dp::save_cache(w, *cache);
  }
  w.u32(static_cast<std::uint32_t>(min_cost.size()));
  for (auto& [name, cache] : min_cost) {
    w.str(name);
    dp::save_cache(w, *cache);
  }
  w.write_crc();
}

void SolveSession::restore(binio::Reader& r) {
  std::scoped_lock solve_lock(solve_mutex_);
  char magic[8];
  r.raw(magic, 8);
  TREEPLACE_CHECK_MSG(std::memcmp(magic, dp::kSnapshotMagic, 8) == 0,
                      "not a session snapshot (bad magic)");
  const std::uint32_t version = r.u32();
  TREEPLACE_CHECK_MSG(version == dp::kSnapshotVersion,
                      "unsupported snapshot version " << version);
  const std::uint64_t hash = r.u64();
  TREEPLACE_CHECK_MSG(hash == topology_->structural_hash(),
                      "snapshot was saved for a different topology");
  const std::uint64_t n = r.u64();
  TREEPLACE_CHECK_MSG(n == topology_->num_internal(),
                      "snapshot internal-node count mismatch");

  // Parse into fresh caches; they replace the session's only after the
  // CRC trailer verifies, so a bad file can never half-restore.
  constexpr std::uint32_t kMaxCaches = 1024;
  std::vector<std::pair<std::string, std::unique_ptr<dp::PowerSubtreeCache>>>
      power;
  std::vector<std::pair<std::string, std::unique_ptr<dp::MinCostSubtreeCache>>>
      min_cost;
  const std::uint32_t num_power = r.u32();
  TREEPLACE_CHECK_MSG(num_power <= kMaxCaches, "snapshot cache count bogus");
  for (std::uint32_t c = 0; c < num_power; ++c) {
    std::string name = r.str(256);
    auto cache = std::make_unique<dp::PowerSubtreeCache>();
    dp::load_cache(r, topology_.get(), *cache);
    power.emplace_back(std::move(name), std::move(cache));
  }
  const std::uint32_t num_min_cost = r.u32();
  TREEPLACE_CHECK_MSG(num_min_cost <= kMaxCaches,
                      "snapshot cache count bogus");
  for (std::uint32_t c = 0; c < num_min_cost; ++c) {
    std::string name = r.str(256);
    auto cache = std::make_unique<dp::MinCostSubtreeCache>();
    dp::load_cache(r, topology_.get(), *cache);
    min_cost.emplace_back(std::move(name), std::move(cache));
  }
  r.verify_crc();

  std::scoped_lock lock(caches_mutex_);
  for (auto& [name, cache] : power) {
    power_caches_[name] = std::move(cache);
  }
  for (auto& [name, cache] : min_cost) {
    min_cost_caches_[name] = std::move(cache);
  }
}

// Defined here so solver.h stays free of the session's definition.
Solution Solver::solve(const SolveRequest& request) const {
  if (request.session != nullptr) request.session->record_cold();
  return solve(request.instance);
}

}  // namespace treeplace
