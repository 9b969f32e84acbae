// Shared machinery for the tree dynamic programs.
//
// Every DP in this library fills, per internal node, a table indexed by a
// small vector of counts ("digits" in a box with per-dimension bounds) whose
// value is the minimal flow leaving the node's subtree (paper Lemma 1 and
// its multi-mode generalization).  Children are combined along a *balanced
// binary merge tree* (a dp::MergePlan): each child becomes a leaf slot
// holding the child's table extended by the child's own placement options,
// internal slots join two earlier slots, and the node's own client mass is
// folded into the root slot last.  The min-flow-per-count-vector semiring
// is associative, so the final table is identical to the paper's
// one-child-at-a-time chain — only the tie-broken witnesses differ — while
// a warm re-solve with one dirty child redoes O(log k) slots instead of
// the chain's whole left-deep suffix.  A per-slot Decision record allows
// O(N) solution reconstruction without the req-vector copies of the
// paper's pseudo-code (the optimization sketched in its Section 3.3).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "tree/tree.h"

namespace treeplace::dp {

/// Sentinel for "no solution with these counts".
inline constexpr RequestCount kInvalidFlow =
    std::numeric_limits<RequestCount>::max();

/// Cell cap of a dense table's box: CompactEntry/Decision index cells
/// with uint32, so larger tables would silently wrap.
inline constexpr std::uint64_t kMaxDenseCells = std::uint64_t{1} << 32;
/// Cell cap of a label table's box (core/dp_cache.h): labels carry 64-bit
/// flats and store only their reachable cells, so only a box whose size
/// overflows 64 bits is rejected.
inline constexpr std::uint64_t kMaxLabelCells =
    std::numeric_limits<std::uint64_t>::max();

/// A mixed-radix index space: digit d ranges over [0, bounds[d]].
/// Zero-dimensional boxes have size 1 (the single empty state) so leaf
/// tables need no special casing.
class Box {
 public:
  Box() : size_(1) {}

  /// Rejects, with a clear error, a box of more than `max_cells` cells.
  explicit Box(std::vector<int> bounds,
               std::uint64_t max_cells = kMaxDenseCells)
      : bounds_(std::move(bounds)) {
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    strides_.resize(bounds_.size());
    size_ = 1;
    for (std::size_t d = bounds_.size(); d-- > 0;) {
      TREEPLACE_DCHECK(bounds_[d] >= 0);
      strides_[d] = size_;
      const bool overflow = __builtin_mul_overflow(
          size_, static_cast<std::size_t>(bounds_[d]) + 1, &size_);
      TREEPLACE_CHECK_MSG(!overflow && size_ <= max_cells,
                          "DP table exceeds " << max_cells << " cells ("
                              << bounds_.size() << " dims); instance too "
                              << "large for its cell indices");
    }
  }

  std::size_t size() const { return size_; }
  std::size_t dims() const { return bounds_.size(); }
  const std::vector<int>& bounds() const { return bounds_; }
  std::size_t stride(std::size_t d) const { return strides_[d]; }

  /// Flat index of a digit vector.
  std::size_t flat(const std::vector<int>& digits) const {
    TREEPLACE_DCHECK(digits.size() == bounds_.size());
    std::size_t idx = 0;
    for (std::size_t d = 0; d < digits.size(); ++d) {
      TREEPLACE_DCHECK(digits[d] >= 0 && digits[d] <= bounds_[d]);
      idx += static_cast<std::size_t>(digits[d]) * strides_[d];
    }
    return idx;
  }

  /// Digit vector of a flat index.
  void decode(std::size_t flat_index, std::vector<int>& digits) const {
    digits.resize(bounds_.size());
    for (std::size_t d = 0; d < bounds_.size(); ++d) {
      digits[d] = static_cast<int>(flat_index / strides_[d]);
      flat_index %= strides_[d];
    }
  }

 private:
  std::vector<int> bounds_;
  std::vector<std::size_t> strides_;
  std::size_t size_ = 1;
};

/// One table entry compacted for merge loops: its flat index and flow, plus
/// the entry's digit dot-product against the *destination* box strides so
/// that combining two entries is a single addition.
struct CompactEntry {
  std::uint32_t flat = 0;
  RequestCount flow = kInvalidFlow;
  std::uint64_t dot = 0;
};

/// Collects the valid entries of `flow` (a table over `box`), computing
/// dot-products against `target` (per-dimension: target must have the same
/// dimensionality).
inline std::vector<CompactEntry> compact_valid_entries(
    const Box& box, const std::vector<RequestCount>& flow, const Box& target) {
  TREEPLACE_DCHECK(box.dims() == target.dims());
  std::vector<CompactEntry> out;
  std::vector<int> digits(box.dims(), 0);
  for (std::size_t flat = 0; flat < box.size(); ++flat) {
    if (flow[flat] != kInvalidFlow) {
      std::uint64_t dot = 0;
      for (std::size_t d = 0; d < box.dims(); ++d) {
        dot += static_cast<std::uint64_t>(digits[d]) * target.stride(d);
      }
      out.push_back(CompactEntry{static_cast<std::uint32_t>(flat), flow[flat],
                                 dot});
    }
    // Odometer increment.
    for (std::size_t d = box.dims(); d-- > 0;) {
      if (++digits[d] <= box.bounds()[d]) break;
      digits[d] = 0;
    }
  }
  return out;
}

/// Per-entry provenance recorded while filling a merge-plan slot.  For an
/// internal slot, `left`/`right` are the flat indices in the two operand
/// slots (`mode` unused).  For a leaf slot, `right` is the flat index in
/// the child's final table and `mode` the mode of a replica placed on the
/// child itself (-1 when none; `left` unused).
struct Decision {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::int8_t mode = -1;
};

/// The balanced binary merge tree over one node's k internal children.
///
/// Slots [0, k) are the leaves, one per child in child order; slot k + s is
/// filled by steps()[s], which joins two earlier slots.  Steps are listed
/// in execution order (operands always precede their step), the split is
/// balanced, and every slot covers a contiguous child range — so a single
/// dirty child invalidates exactly its leaf plus the ceil(log2 k) internal
/// slots on its root path, the redo set of a warm re-solve.
class MergePlan {
 public:
  struct Step {
    std::uint32_t left = 0;        ///< slot id of the left operand
    std::uint32_t right = 0;       ///< slot id of the right operand
    std::uint32_t first_leaf = 0;  ///< leaves covered: [first_leaf,
    std::uint32_t last_leaf = 0;   ///<                  last_leaf]
  };

  explicit MergePlan(std::uint32_t num_leaves) : num_leaves_(num_leaves) {
    if (num_leaves_ > 1) {
      steps_.reserve(num_leaves_ - 1);
      build(0, num_leaves_);
    }
  }

  std::uint32_t num_leaves() const { return num_leaves_; }
  const std::vector<Step>& steps() const { return steps_; }
  std::uint32_t num_slots() const {
    return num_leaves_ + static_cast<std::uint32_t>(steps_.size());
  }
  std::uint32_t step_slot(std::size_t s) const {
    return num_leaves_ + static_cast<std::uint32_t>(s);
  }
  /// The slot holding the all-children combination; meaningless when
  /// num_leaves() == 0 (the node's table is just its folded client mass).
  std::uint32_t root_slot() const { return num_slots() - 1; }

 private:
  /// Builds the subtree over leaves [lo, hi), returning its slot id.
  std::uint32_t build(std::uint32_t lo, std::uint32_t hi) {
    if (hi - lo == 1) return lo;
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint32_t left = build(lo, mid);
    const std::uint32_t right = build(mid, hi);
    steps_.push_back(Step{left, right, lo, hi - 1});
    return num_leaves_ + static_cast<std::uint32_t>(steps_.size()) - 1;
  }

  std::uint32_t num_leaves_;
  std::vector<Step> steps_;
};

/// Memoizes MergePlans by child count: one solve asks for the same handful
/// of fan-outs over and over (table building and every reconstruction).
class MergePlanCache {
 public:
  const MergePlan& get(std::size_t num_leaves) {
    auto it = plans_.find(num_leaves);
    if (it == plans_.end()) {
      it = plans_
               .emplace(num_leaves,
                        MergePlan(static_cast<std::uint32_t>(num_leaves)))
               .first;
    }
    return it->second;
  }

 private:
  std::unordered_map<std::size_t, MergePlan> plans_;
};

}  // namespace treeplace::dp
