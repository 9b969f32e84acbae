// Persistent warm-start state for repeated solves over one topology.
//
// A SolveSession owns the per-subtree DP caches (core/dp_cache.h) that let
// delta-aware solvers reuse the tables of unchanged subtrees between
// solves — the serving loop's scenario deltas touch a few clients per
// request, so a warm re-solve recomputes only the root paths of the
// touched nodes (and, within each touched node, only the O(log k) dirty
// slots of its balanced merge tree) and splices cached tables in for
// everything else.  Sessions are keyed by topology: the serving layer
// keeps one per TopologyCache entry (evicted together), experiment loops
// keep one per chained tree.
//
// Contract:
//   * One session belongs to one topology.  Engines verify this themselves
//     (SubtreeCache::attach wipes on a topology change), so a misused
//     session degrades to cold solves, never to wrong results.
//   * Warm solves sharing a session must be serialized: hold solve_mutex()
//     across each Solver::solve(SolveRequest) call that carries the session
//     (SolveDispatcher does).
//     The stats counters are atomics and may be read concurrently.
//   * Results are bit-identical to cold solves by construction; only the
//     work counters (merge pairs, table cells) shrink.
//   * Options::max_bytes bounds the resident cache footprint: after each
//     warm solve the session drops merge-tree snapshots first (losing
//     O(log k) slot resume but keeping whole-subtree splicing) and whole
//     subtree tables last (losing the splice, paying a recompute) until
//     the budget holds.  0 = unbounded.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/dp_cache.h"
#include "core/power_common.h"
#include "tree/topology.h"

namespace treeplace {

namespace binio {
class Writer;
class Reader;
}  // namespace binio

class SolveSession {
 public:
  struct Options {
    /// Byte budget for all of this session's cached DP state; 0 = no
    /// limit.  Enforced after every warm solve (see enforce_budget()).
    std::size_t max_bytes = 0;
  };

  explicit SolveSession(std::shared_ptr<const Topology> topology);
  SolveSession(std::shared_ptr<const Topology> topology, Options options);

  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  const std::shared_ptr<const Topology>& topology_ptr() const {
    return topology_;
  }
  const Options& options() const { return options_; }

  /// Guards against cross-topology misuse: incremental solvers call this
  /// before touching the caches.  The check matters for memory safety, not
  /// just hygiene — the session pins its own topology alive, so a cache
  /// keyed to a *different* topology's address could outlive it and
  /// collide with a reallocation.
  void check_topology(const std::shared_ptr<const Topology>& topology) const {
    TREEPLACE_CHECK_MSG(topology == topology_,
                        "SolveSession used with an instance of a different "
                        "topology (sessions are per-topology)");
  }

  /// Serializes warm solves: hold across a solve(SolveRequest) call that
  /// was handed this session.  serve::SolveDispatcher already runs a
  /// session's warm solves one at a time (see attachment()); there the
  /// mutex only excludes save()/compact().
  std::mutex& solve_mutex() { return solve_mutex_; }

  /// Opaque state a serving layer attaches to this session: created by
  /// `make` on the first call, returned by every later one, never read by
  /// the solver layer.  serve::SolveDispatcher keeps its per-session FIFO
  /// of warm solves here.  (A dispatcher-side map with an entry per busy
  /// period, created on the submitting thread and erased on a worker,
  /// measurably inflated a churning server's peak RSS: 59 MB to 86 MB
  /// serving short connections.)
  void* attachment(std::shared_ptr<void> (*make)());

  /// The per-engine caches, created on first use.  The key is the solver's
  /// registry name, so "power-exact" and "power-sym" never share tables
  /// (their boxes have different dimensionality).
  dp::PowerSubtreeCache& power_cache(const std::string& key);
  dp::MinCostSubtreeCache& min_cost_cache(const std::string& key);

  struct Stats {
    std::uint64_t warm_solves = 0;  ///< solves that went through a cache
    std::uint64_t cold_solves = 0;  ///< fallback solves (no capability)
    std::uint64_t nodes_recomputed = 0;
    std::uint64_t nodes_reused = 0;
    /// Merge-plan slots built across all warm solves (leaf expansions +
    /// internal joins); the O(log k) redo claim is visible here.
    std::uint64_t merge_steps = 0;
    /// NodeSignatures compared while planning; the delta fast path keeps
    /// this near the touched-set size instead of N per solve.
    std::uint64_t signatures_checked = 0;
    /// Output cells spliced from snapshots by lazy root-path joins instead
    /// of recomputed (see core/merge_kernel.h) across all warm solves.
    std::uint64_t cells_skipped = 0;
    /// Byte-budget accounting (Options::max_bytes).  bytes_resident is
    /// tracked only when a budget is set — unbudgeted sessions skip the
    /// per-solve accounting walk and report 0.
    std::uint64_t bytes_resident = 0;  ///< after the last warm solve
    std::uint64_t snapshots_dropped = 0;
    std::uint64_t tables_dropped = 0;
    /// Labels the power engines' warm solves kept (PowerSolveStats::
    /// labels).
    std::uint64_t labels = 0;
    /// Wall-clock phase split summed over the power engines' warm solves
    /// (PowerPhaseSeconds); timing only, never part of a result line.
    PowerPhaseSeconds phases;
  };
  Stats stats() const;

  /// Called by solvers after a cache-backed solve with the engine's
  /// warm-start accounting; also enforces Options::max_bytes (the caller
  /// already holds solve_mutex(), so cache surgery is safe here).
  void record_warm(std::uint64_t nodes_recomputed, std::uint64_t nodes_reused,
                   std::uint64_t merge_steps, std::uint64_t signatures_checked,
                   std::uint64_t cells_skipped);
  /// The power engines' form: their accounting plus the labels kept and
  /// the phase split.
  void record_warm(const PowerSolveStats& stats);
  /// Called by the base-class cold fallback.
  void record_cold();

  /// Serializes every per-engine cache to `w`: magic + format version +
  /// topology structural hash, each cache's full warm-start state (see
  /// the snapshot format notes in core/dp_cache.h), and a CRC32 trailer.
  /// Takes solve_mutex() internally — call between solves, not from one.
  /// Cache names are written in sorted order, so identical sessions
  /// serialize to identical bytes.
  void save(binio::Writer& w);

  /// Restores the caches saved by save().  All-or-nothing: the record is
  /// parsed into fresh caches and swapped in only after the CRC trailer
  /// verifies; any truncation, corruption, wrong version, or topology
  /// mismatch throws CheckError and leaves the session untouched (the
  /// next solve simply runs cold).  Takes solve_mutex() internally.
  void restore(binio::Reader& r);

  /// Losslessly packs every cached MinCost flow table (core/merge_kernel.h
  /// PackedTable: dead-cell runs elided, cells narrowed to the width the
  /// table needs; the power engines' label tables have nothing to pack),
  /// returning the resident cache bytes after packing.
  /// Unlike enforce_budget()'s shedding this costs no recompute — the
  /// next solve unpacks exactly the nodes it touches.  Takes
  /// solve_mutex() internally — call between solves, not from one.
  std::size_t compact();

  /// Resident bytes of all cached DP state right now (accounting walk;
  /// O(cached nodes)).  Takes solve_mutex() internally.
  std::size_t resident_bytes();

 private:
  /// Sheds cached state until the byte budget holds: merge-tree snapshots
  /// first, whole node states last.  Within each pass victims are ranked
  /// by hotness (times dirtied, ascending) then size (descending), so
  /// frequently-updated subtrees — whose tables earn their keep on every
  /// solve — are shed last.  Requires solve_mutex() held (it mutates the
  /// caches).
  void enforce_budget();

  std::shared_ptr<const Topology> topology_;
  Options options_;
  std::mutex solve_mutex_;
  std::once_flag attachment_once_;
  std::shared_ptr<void> attachment_;
  // Guards the cache maps only; cache contents are protected by
  // solve_mutex_ (held across the whole solve).
  std::mutex caches_mutex_;
  std::unordered_map<std::string, std::unique_ptr<dp::PowerSubtreeCache>>
      power_caches_;
  std::unordered_map<std::string, std::unique_ptr<dp::MinCostSubtreeCache>>
      min_cost_caches_;
  std::atomic<std::uint64_t> warm_solves_{0};
  std::atomic<std::uint64_t> cold_solves_{0};
  std::atomic<std::uint64_t> nodes_recomputed_{0};
  std::atomic<std::uint64_t> nodes_reused_{0};
  std::atomic<std::uint64_t> merge_steps_{0};
  std::atomic<std::uint64_t> signatures_checked_{0};
  std::atomic<std::uint64_t> cells_skipped_{0};
  std::atomic<std::uint64_t> bytes_resident_{0};
  std::atomic<std::uint64_t> snapshots_dropped_{0};
  std::atomic<std::uint64_t> tables_dropped_{0};
  std::atomic<std::uint64_t> labels_{0};
  /// PowerPhaseSeconds sums in nanoseconds (atomic integer adds), one per
  /// kPowerPhases entry.
  std::array<std::atomic<std::uint64_t>, kPowerPhases.size()> phase_ns_{};
};

}  // namespace treeplace
