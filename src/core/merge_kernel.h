// The merge-kernel layer: arena-backed DP tables and the min-plus join.
//
// Every DP engine in this library spends its time in one loop (paper
// Lemma 1 / Section 3.3): joining two per-child tables under the min-flow-
// per-count-vector semiring, `flow[le.dot + re.dot] = min(flow, le.flow +
// re.flow)` below the W_M feasibility cut.  This layer owns that loop so
// the three engines cannot diverge on its contract:
//
//   * Arena tables (TableArena / ArenaTable): flow and decision storage is
//     bump-allocated in cache-line-aligned blocks recycled through
//     size-class free lists — a warm re-solve reallocates its dirty slots
//     out of the blocks the previous solve returned, so steady-state
//     serving performs no heap allocation for tables at all.
//   * Kernel paths: a *sparse* path iterating CompactEntry lists (SoA) and
//     a *dense* path that skips right-operand compaction when occupancy is
//     high and sweeps raw table rows with a branchless, vectorizable
//     min-plus kernel (runtime-dispatched AVX2/NEON, `TREEPLACE_SIMD=off`
//     selects the scalar fallback).  All paths preserve the serial loop's
//     "first occurrence of the minimal flow" tie-break, so flows *and*
//     decisions are bit-identical across paths, SIMD settings, and thread
//     counts (sharded joins reduce in left-index order, replacing only on
//     strictly smaller flow, which reproduces the serial sweep's winner).
//   * Lazy joins (LazyJoin): when a warm re-solve dirties one operand of a
//     root-path slot and the operand's value diff against its snapshot is
//     small, only output cells reachable from the changed cells are
//     recomputed; everything else is spliced from the previous output
//     (counted as cells_skipped).  Cells whose previous winner was a
//     changed cell are re-minimized exactly, so the result — including
//     tie-broken decisions — is bit-identical to a full rebuild.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dp_util.h"
#include "support/thread_pool.h"
#include "tree/topology.h"

namespace treeplace::dp {

// ---------------------------------------------------------------------------
// Arena tables

/// Bump allocator for DP tables: cache-line-aligned blocks carved from
/// large chunks, recycled through power-of-two size-class free lists.  Not
/// thread-safe — one arena belongs to one solve (or one SolveSession,
/// whose warm solves are serialized by solve_mutex).
class TableArena {
 public:
  static constexpr std::size_t kAlignment = 64;

  TableArena() = default;
  TableArena(const TableArena&) = delete;
  TableArena& operator=(const TableArena&) = delete;
  ~TableArena();

  /// A 64-byte-aligned block of at least `bytes` bytes (rounded up to its
  /// size class).  Returns nullptr for bytes == 0.
  void* allocate(std::size_t bytes);
  /// Returns a block to its size-class free list; `bytes` must be the
  /// value passed to allocate().
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Invalidates every outstanding block and recycles the chunk memory for
  /// the next fill (chunks are retained, not freed).
  void reset() noexcept;

  /// Bytes handed out and not yet returned (size-class-rounded) — the
  /// `table_bytes` accounting surfaced through solve stats.
  std::size_t used_bytes() const { return used_bytes_; }
  /// Total chunk bytes held from the system allocator.
  std::size_t reserved_bytes() const { return reserved_bytes_; }

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t size_class(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::vector<std::vector<void*>> free_;  ///< per size-class block lists
  std::size_t used_bytes_ = 0;
  std::size_t reserved_bytes_ = 0;
};

/// A non-owning handle to an arena-backed table.  The owner (a NodeState,
/// via its SubtreeCache's arena, or a solver's local arena) is responsible
/// for returning the block with clear()/assign(); handles die with their
/// arena otherwise.
template <typename T>
class ArenaTable {
 public:
  ArenaTable() = default;

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::span<T> span() { return {data_, size_}; }
  std::span<const T> span() const { return {data_, size_}; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// Sizes the table to n elements, reusing the current block when it is
  /// large enough.  Contents are uninitialized.
  void resize_uninit(TableArena& arena, std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes > capacity_bytes_) {
      if (data_ != nullptr) arena.deallocate(data_, capacity_bytes_);
      data_ = static_cast<T*>(arena.allocate(bytes));
      capacity_bytes_ = bytes;
    }
    size_ = n;
  }

  /// Sizes the table and fills it with `value`.
  void assign(TableArena& arena, std::size_t n, const T& value) {
    resize_uninit(arena, n);
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  /// Sizes the table and copies `src` into it.
  void assign_copy(TableArena& arena, std::span<const T> src) {
    resize_uninit(arena, src.size());
    for (std::size_t i = 0; i < size_; ++i) data_[i] = src[i];
  }

  /// Returns the block to the arena and empties the handle.
  void clear(TableArena& arena) noexcept {
    if (data_ != nullptr) arena.deallocate(data_, capacity_bytes_);
    data_ = nullptr;
    size_ = 0;
    capacity_bytes_ = 0;
  }

  /// Detaches without freeing — for handing the block to another handle.
  ArenaTable take() {
    ArenaTable out = *this;
    data_ = nullptr;
    size_ = 0;
    capacity_bytes_ = 0;
    return out;
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_bytes_ = 0;  ///< allocation size passed to the arena
};

// ---------------------------------------------------------------------------
// Packed tables (narrow cells + dead-run elision)

/// A memory-compact, read-only encoding of one flow table.  Two effects
/// stack: invalid cells (kInvalidFlow — the vast majority of cells in
/// high-dimensional boxes, where most count vectors are unreachable) are
/// elided into run-length gaps, and the surviving finite flows are stored
/// at the narrowest width that holds the table's maximum (u16/u32/u64,
/// chosen per table — the W_M feasibility cut keeps every finite flow at
/// or below the largest mode capacity, so most tables pack to u16/u32).
/// pack()/unpack() round-trip bit-exactly; packing cached DP state is
/// therefore invisible to solve results and only shrinks resident session
/// bytes (the 2-4x reduction gated by bench/day_serve) and on-disk
/// session snapshots (core/dp_snapshot.h serializes flow tables packed).
class PackedTable {
 public:
  struct Run {
    std::uint32_t start = 0;   ///< first valid cell of the run
    std::uint32_t length = 0;  ///< consecutive valid cells
  };

  PackedTable() = default;

  /// Encodes `flow`; chooses the cell width from the actual maximum, so
  /// widening can never be needed on unpack (checked in debug builds).
  static PackedTable pack(std::span<const RequestCount> flow);

  /// Rebuilds a snapshot reader's table; validates shape (width, run
  /// ordering and bounds, payload size) and throws CheckError on any
  /// mismatch, so corrupt snapshots fail before allocation.
  static PackedTable from_parts(std::uint64_t cells, std::uint8_t width,
                                std::vector<Run> runs,
                                std::vector<std::uint8_t> payload);

  /// Decodes into `out` (must be exactly cells() long): elided cells
  /// become kInvalidFlow, valid cells their original values.
  void unpack(std::span<RequestCount> out) const;

  bool empty() const { return cells_ == 0; }
  std::uint64_t cells() const { return cells_; }
  std::uint8_t width() const { return width_; }
  const std::vector<Run>& runs() const { return runs_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  /// Heap bytes held by the encoding — the resident-bytes accounting twin
  /// of ArenaTable::capacity_bytes().
  std::size_t heap_bytes() const {
    return runs_.capacity() * sizeof(Run) + payload_.capacity();
  }

  void clear() { *this = PackedTable(); }

 private:
  std::uint64_t cells_ = 0;
  std::uint8_t width_ = 8;  ///< bytes per valid cell: 2, 4 or 8
  std::vector<Run> runs_;
  std::vector<std::uint8_t> payload_;
};

/// Narrow encoding of a Decision table: each cell stores `left` and
/// `right` at the fewest bytes that hold the table's maxima (1, 2 or 4 —
/// operand flats index DP cells, so u32 is already enough) plus the mode
/// byte, vs sizeof(Decision) = 12 with padding.  When the companion flow
/// table is available, dead cells (kInvalidFlow in the flow — their
/// decisions are never read: reconstruction only follows valid cells) are
/// additionally elided behind the flow table's validity runs, which the
/// encoding stores itself so unpacking needs no external mask; elided
/// cells decode to a zeroed Decision.  pack() is deterministic, so
/// serialized bytes agree whether a state is packed in memory or packed
/// on the fly.
class PackedDecisions {
 public:
  PackedDecisions() = default;

  /// Dense encoding: every cell survives (used when no flow table pairs
  /// with the decisions, e.g. after merge-tree snapshots were shed).
  static PackedDecisions pack(std::span<const Decision> dec);

  /// Elided encoding: cells where `flow` holds kInvalidFlow are dropped.
  /// `flow.size()` must equal `dec.size()`.
  static PackedDecisions pack(std::span<const Decision> dec,
                              std::span<const RequestCount> flow);

  /// Rebuilds a snapshot reader's table; validates widths, run shape and
  /// payload size, throwing CheckError before any decode on mismatch.
  /// Empty `runs` with a full-size payload is the dense encoding.
  static PackedDecisions from_parts(std::uint64_t cells, std::uint8_t elided,
                                    std::uint8_t left_width,
                                    std::uint8_t right_width,
                                    std::vector<PackedTable::Run> runs,
                                    std::vector<std::uint8_t> payload);

  /// Decodes into `out` (must be exactly cells() long).
  void unpack(std::span<Decision> out) const;

  bool empty() const { return cells_ == 0; }
  std::uint64_t cells() const { return cells_; }
  bool elided() const { return elided_; }
  std::uint8_t left_width() const { return left_width_; }
  std::uint8_t right_width() const { return right_width_; }
  std::uint8_t cell_bytes() const {
    return static_cast<std::uint8_t>(left_width_ + right_width_ + 1);
  }
  const std::vector<PackedTable::Run>& runs() const { return runs_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  std::size_t heap_bytes() const {
    return runs_.capacity() * sizeof(PackedTable::Run) + payload_.capacity();
  }

  void clear() { *this = PackedDecisions(); }

 private:
  std::uint64_t cells_ = 0;
  bool elided_ = false;
  std::uint8_t left_width_ = 4;
  std::uint8_t right_width_ = 4;
  std::vector<PackedTable::Run> runs_;  ///< empty in the dense encoding
  std::vector<std::uint8_t> payload_;
};

// ---------------------------------------------------------------------------
// Kernel configuration

/// Which inner-loop implementation the join uses.  The process-wide
/// default comes from the environment (kernel_config()); tests pass
/// explicit configs to fuzz every path against every other.
struct KernelConfig {
  /// false = the scalar fallback (TREEPLACE_SIMD=off / 0): the original
  /// branchy loops, guaranteed vectorization-free.
  bool simd = true;
  enum class Path { kAuto, kSparse, kDense };
  /// kAuto picks dense when the right operand's occupancy clears
  /// dense_occupancy; tests force one path to cross-check the other.
  Path path = Path::kAuto;
  /// Minimum valid-cell fraction of the right operand for the dense path.
  double dense_occupancy = 0.5;
  /// Minimum |changed| advantage for the lazy path: lazy runs only when
  /// the dirty operand's diff is at most this fraction of its valid
  /// entries (and falls back mid-join when too many previous winners were
  /// invalidated).  <= 0 disables lazy joins.
  double lazy_max_changed = 0.5;
};

/// The environment-selected process default (TREEPLACE_SIMD=on|off, read
/// once).
const KernelConfig& kernel_config();

// ---------------------------------------------------------------------------
// Compact entries (struct-of-arrays)

/// The valid cells of one operand, SoA so kernels stream each attribute:
/// flat index in the operand's own box, flow, and the digit dot-product
/// against the *output* box strides (combining two entries is then one
/// addition).  Entries are in ascending flat order — the order the serial
/// tie-break is defined over.
struct EntryList {
  std::vector<std::uint32_t> flat;
  std::vector<RequestCount> flow;
  std::vector<std::uint64_t> dot;

  std::size_t size() const { return flat.size(); }
  void clear() {
    flat.clear();
    flow.clear();
    dot.clear();
  }
};

/// Fills `out` with the valid entries of `flow` (a table over `box`),
/// dotted against `target`'s strides.
void compact_entries(const Box& box, std::span<const RequestCount> flow,
                     const Box& target, EntryList& out);

// ---------------------------------------------------------------------------
// The join

/// Reusable per-solver scratch: entry lists, dense row offsets, update
/// masks, shard tables.  Lives as long as the solver so steady-state joins
/// allocate nothing.
struct JoinScratch {
  EntryList left, right;
  std::vector<std::uint64_t> row_dot;     ///< dense: per-row output offset
  /// Dense: per-shard lane masks, each on its own cache lines (see
  /// join_slots).
  std::vector<std::uint8_t> shard_upd;
  std::vector<std::uint8_t> reach;        ///< lazy: output reachability
  std::vector<std::uint8_t> changed_set_left;   ///< lazy: membership masks
  std::vector<std::uint8_t> changed_set_right;
  std::vector<std::uint64_t> changed_dot_left;  ///< lazy: cell offsets
  std::vector<std::uint64_t> changed_dot_right;
  std::vector<std::size_t> rescue;        ///< lazy: cells needing re-min
  std::vector<int> digits;                ///< lazy: decode scratch
  std::vector<int> ldigits;               ///< lazy: left-entry digit matrix
  std::vector<std::vector<RequestCount>> shard_flow;
  std::vector<std::vector<Decision>> shard_dec;
};

/// Inputs of one slot join out = left (+) right under `cap`.
struct JoinInputs {
  const Box* lbox = nullptr;
  std::span<const RequestCount> lflow;
  const Box* rbox = nullptr;
  std::span<const RequestCount> rflow;
  const Box* obox = nullptr;
  RequestCount cap = 0;
};

/// Warm-resume context for a lazy join: the previous output snapshot (same
/// box) and, per operand, the ascending flat indices where its table
/// differs from *its own* snapshot.  An empty span means that operand is
/// bit-identical to the previous solve's; both spans may be non-empty (a
/// rolling multi-delta batch dirties both children of a join), in which
/// case the changed sweeps run from both sides and the both-changed pair
/// grid is reach-marked so stale splices cannot survive.
struct LazyJoin {
  std::span<const RequestCount> old_flow;
  std::span<const Decision> old_dec;
  std::span<const std::uint32_t> changed_left;
  std::span<const std::uint32_t> changed_right;
};

struct JoinStats {
  std::uint64_t pairs = 0;          ///< (left, right) combinations visited
  std::uint64_t cells_skipped = 0;  ///< output cells spliced by a lazy join
  bool lazy = false;                ///< the lazy path ran to completion
};

/// Joins two tables into out_flow/out_dec (sized to obox->size(); filled
/// by the kernel, kInvalidFlow where unreachable).  Sharded over `pool`
/// when profitable; bit-identical to the serial scalar loop for every
/// config/pool combination.  `lazy`, when given and profitable, splices
/// unreachable cells from the snapshot instead of recomputing them.
JoinStats join_slots(const JoinInputs& in, std::span<RequestCount> out_flow,
                     std::span<Decision> out_dec, ThreadPool* pool,
                     JoinScratch& scratch, const LazyJoin* lazy = nullptr,
                     const KernelConfig& cfg = kernel_config());

/// Appends the flat indices where two same-size tables differ (ascending).
/// Returns false — leaving `out` in an unspecified state — once more than
/// `max_changed` differences are found, so callers can cheaply classify a
/// slot as "too churned for a lazy join".
bool diff_tables(std::span<const RequestCount> old_flow,
                 std::span<const RequestCount> new_flow,
                 std::size_t max_changed, std::vector<std::uint32_t>& out);

/// Rolling changed-cell footprint of one node's warm rebuild.  Classifying
/// a slot as lazily joinable used to be purely per-slot (diff at most a
/// fixed fraction of the slot), which made bursty multi-delta batches —
/// many dirty children of one node, each with a modest diff — bail to full
/// joins one slot at a time.  The budget instead grants the whole rebuild
/// one footprint, a fraction of the total dirty-slot cells, and lets any
/// single slot spend up to half its own size from it: a burst whose
/// *aggregate* churn is small stays lazy even when one slot's local ratio
/// is high, while a genuinely churned rebuild exhausts the footprint and
/// degrades to full joins exactly as before.
class RollingDiffBudget {
 public:
  /// Arms the budget for one node rebuild; `dirty_cells_total` is the cell
  /// count of the slots this rebuild will replace (their old snapshots).
  void reset(std::size_t dirty_cells_total) {
    remaining_ = dirty_cells_total / 4 + 8;
  }
  /// The diff cap for one slot of `cells` cells — generous locally, but
  /// never more than what remains of the rolling footprint.
  std::size_t slot_cap(std::size_t cells) const {
    const std::size_t local = cells / 2 + 8;
    return local < remaining_ ? local : remaining_;
  }
  /// Consumes `changed` cells of the footprint after a successful diff.
  void charge(std::size_t changed) {
    remaining_ -= changed < remaining_ ? changed : remaining_;
  }
  std::size_t remaining() const { return remaining_; }

 private:
  std::size_t remaining_ = 0;
};

}  // namespace treeplace::dp
