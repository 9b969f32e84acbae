// Serialization of per-subtree DP caches: the session-persistence core.
//
// A SubtreeCache round-trips through an endian-stable binary record (see
// the format notes in core/dp_cache.h and the scalar encoding in
// support/binio.h) so a SolveSession can be written to disk on shard
// drain and restored warm after a restart or a topology migration.  The
// serialized record captures everything warm-solve planning reads —
// signatures, validity/resumability flags, hotness counters, the
// last_touched hint, and every table cell including merge-tree slot
// snapshots — so a restored cache is indistinguishable from the saved
// one: the next warm solve recomputes the same nodes, splices the same
// slots, and produces bit-identical results and work counters.
//
// load_cache() throws CheckError on any structural mismatch (wrong node
// count, out-of-range ids, truncation).  Callers restore into a *fresh*
// cache and discard it on failure (SolveSession::restore does), so a bad
// file can never leave a half-restored cache behind.
#pragma once

#include "core/dp_cache.h"
#include "support/binio.h"

namespace treeplace::dp {

/// Magic + version of the enclosing session snapshot file
/// (SolveSession::save): 8 magic bytes, then a u32 format version.
/// Version 2: flow tables are serialized as PackedTable encodings
/// (run-length dead-cell elision + narrow cells) instead of flat u64
/// arrays.  Version 3: the power DPs' root node stores no folded table and
/// no root merge slot (the root join pairs the operand slots instead, see
/// core/pareto_root.h).  Older files are rejected whole (sessions then
/// start cold).
inline constexpr char kSnapshotMagic[9] = "TPSNAP01";
inline constexpr std::uint32_t kSnapshotVersion = 3;

void save_cache(binio::Writer& w, const PowerSubtreeCache& cache);
void save_cache(binio::Writer& w, const MinCostSubtreeCache& cache);

/// Restores a cache saved by save_cache() and binds it to `topo` (the
/// next attach() with the same topology pointer + params returns warm).
void load_cache(binio::Reader& r, const Topology* topo,
                PowerSubtreeCache& cache);
void load_cache(binio::Reader& r, const Topology* topo,
                MinCostSubtreeCache& cache);

}  // namespace treeplace::dp
