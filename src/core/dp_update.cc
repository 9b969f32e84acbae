#include "core/dp_update.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/dp_util.h"
#include "core/merge_kernel.h"

namespace treeplace {

namespace {

using dp::ArenaTable;
using dp::Box;
using dp::Decision;
using dp::kInvalidFlow;
using dp::TableArena;

/// Externally ownable per-node state (see core/dp_cache.h).  Slot tables
/// are flat arrays over Box({eb, nb}) — stride(0) = nb+1, stride(1) = 1 —
/// so the shared merge kernel applies unchanged; decisions use the common
/// dp::Decision record (internal slots: operand flats; leaf slots: the
/// child's flat with mode 0 when a replica sits on the child, -1 when not).
using NodeState = dp::MinCostNodeState;

/// Per-slot warm-diff state; see the exact power DP (power_dp.cc).
enum class SlotDiff : std::uint8_t { kClean, kChanged, kUnknown };

struct RootChoice {
  int e = 0;
  int n = 0;
  bool place_root = false;
  double cost = std::numeric_limits<double>::infinity();
  int servers = 0;
};

class MinCostSolver {
 public:
  MinCostSolver(const Topology& topo, const Scenario& scen,
                const MinCostConfig& config)
      : topo_(topo), scen_(scen), config_(config), cache_(config.cache),
        arena_(config.cache ? &config.cache->arena() : &own_arena_),
        local_states_(config.cache ? 0 : topo.num_internal()) {}

  MinCostResult solve() {
    MinCostResult result;
    const dp::DirtyPlan plan = plan_dirty();
    result.signatures_checked = plan.signatures_checked;
    for (NodeId j : topo_.internal_post_order()) {
      const std::size_t i = topo_.internal_index(j);
      if (plan.dirty[i] == 0) {
        ++result.nodes_reused;
        continue;  // splice the cached subtree table in unchanged
      }
      if (!process_node(j, plan)) {
        finish_stats(result);
        return result;  // infeasible client mass
      }
      if (cache_ != nullptr) cache_->commit(i, signature(j));
      ++result.nodes_recomputed;
    }
    const RootChoice best = scan_root();
    finish_stats(result);
    if (!std::isfinite(best.cost)) return result;
    result.feasible = true;
    if (best.place_root) result.placement.add(topo_.root(), 0);
    const NodeState& s = node_state(topo_.internal_index(topo_.root()));
    reconstruct(topo_.root(), flat_idx(best.e, best.n, s.nb),
                result.placement);
    return result;
  }

 private:
  NodeState& node_state(std::size_t i) const {
    return cache_ != nullptr ? cache_->state(i) : local_states_[i];
  }

  /// The DP ignores original modes (single-mode planning): the signature
  /// normalizes a pre-existing node's mode to 0 so mode-only edits never
  /// dirty a subtree.
  dp::NodeSignature signature(NodeId j) const {
    return dp::NodeSignature{scen_.client_mass(j),
                             scen_.pre_existing(j) ? 0 : -1};
  }

  dp::DirtyPlan plan_dirty() {
    // Only W shapes the tables; create/delete costs price the root scan,
    // recomputed every solve.
    return dp::plan_warm_solve(
        topo_, cache_, {static_cast<std::uint64_t>(config_.capacity)},
        [this](NodeId j) { return signature(j); }, config_.deltas);
  }

  void finish_stats(MinCostResult& result) const {
    result.merge_iterations = merge_iterations_;
    result.merge_steps = merge_steps_;
    result.cells_skipped = cells_skipped_;
    result.table_bytes = arena_->used_bytes();
  }

  static std::size_t flat_idx(int e, int n, int nb) {
    return static_cast<std::size_t>(e) * static_cast<std::size_t>(nb + 1) +
           static_cast<std::size_t>(n);
  }

  /// (Re)builds node j's table along the merge plan (dp::MergePlan over
  /// its internal children; the node's own client mass folds into the
  /// root slot last).  Returns false when the client mass alone exceeds
  /// W: those requests traverse every ancestor together, so the whole
  /// instance is infeasible (paper Algorithm 2, exit).  With a resumable
  /// cache entry, clean children's slots are spliced in and only dirty
  /// leaves + their root paths + the base fold re-run, lazily where the
  /// dirty operand's value diff is small (core/merge_kernel.h).
  bool process_node(NodeId j, const dp::DirtyPlan& plan) {
    const std::size_t i = topo_.internal_index(j);
    if (cache_ != nullptr) cache_->ensure_unpacked(i);
    NodeState& s = node_state(i);
    const RequestCount base = scen_.client_mass(j);
    if (base > config_.capacity) return false;
    const auto children = topo_.internal_children(j);
    const std::size_t k = children.size();
    const dp::MergePlan& mplan = plans_.get(k);
    const std::size_t slots = mplan.num_slots();

    const bool resume = plan.resume[i] != 0;
    const dp::SlotDirtiness slot_dirty =
        dp::plan_slot_dirtiness(plan, topo_, children, mplan, resume);
    if (!resume) {
      for (auto& t : s.slot_flows) t.clear(*arena_);
      for (auto& t : s.slot_decisions) t.clear(*arena_);
      s.slot_eb.assign(slots, 0);
      s.slot_nb.assign(slots, 0);
      s.slot_flows.assign(slots, {});
      s.slot_decisions.assign(slots, {});
    }
    slot_diff_.assign(slots, SlotDiff::kClean);
    slot_changed_.resize(slots);
    if (resume) {
      // One rolling changed-cell footprint for the whole rebuild (see
      // dp::RollingDiffBudget).
      std::size_t dirty_cells = 0;
      for (std::size_t t = 0; t < slots; ++t) {
        if (slot_dirty.dirty[t] != 0) dirty_cells += s.slot_flows[t].size();
      }
      diff_budget_.reset(dirty_cells);
    }

    for (std::size_t c = 0; c < k; ++c) {
      if (slot_dirty.dirty[c] != 0) expand_leaf(s, c, children[c], resume);
    }
    for (std::size_t t = 0; t < mplan.steps().size(); ++t) {
      const std::uint32_t out = mplan.step_slot(t);
      if (slot_dirty.dirty[out] != 0) {
        merge_step(s, mplan.steps()[t], out, resume);
      }
    }
    if (!resume || slot_dirty.any || plan.base_changed[i] != 0) {
      fold_base(s, base, mplan);
    }

    if (cache_ == nullptr) {
      // One-shot solve: the slot snapshots are never resumed.  The slot
      // bounds and decisions stay (reconstruction re-derives flat indices
      // from them).
      for (auto& t : s.slot_flows) t.clear(*arena_);
      s.slot_flows.clear();
      s.slot_flows.shrink_to_fit();
    }
    return true;
  }

  /// Installs a rebuilt slot table, diffing it against the previous
  /// snapshot when resuming; see the exact power DP's finish_slot.
  void finish_slot(NodeState& s, std::size_t slot, int eb, int nb,
                   ArenaTable<RequestCount>& flow, ArenaTable<Decision>& dec,
                   bool try_diff) {
    if (try_diff) {
      ArenaTable<RequestCount>& old_flow = s.slot_flows[slot];
      if (old_flow.size() == flow.size() && s.slot_eb[slot] == eb &&
          s.slot_nb[slot] == nb &&
          dp::diff_tables(old_flow.span(), flow.span(),
                          diff_budget_.slot_cap(flow.size()),
                          slot_changed_[slot])) {
        diff_budget_.charge(slot_changed_[slot].size());
        slot_diff_[slot] = slot_changed_[slot].empty() ? SlotDiff::kClean
                                                       : SlotDiff::kChanged;
      } else {
        slot_diff_[slot] = SlotDiff::kUnknown;
      }
    }
    s.slot_flows[slot].clear(*arena_);
    s.slot_flows[slot] = flow.take();
    s.slot_decisions[slot].clear(*arena_);
    s.slot_decisions[slot] = dec.take();
    s.slot_eb[slot] = eb;
    s.slot_nb[slot] = nb;
  }

  /// Fills leaf slot `slot` with child c's table extended by the child's
  /// own placement option: every child state stays open, and a replica on
  /// c (absorbing its flow) bumps the reused or new count.
  void expand_leaf(NodeState& s, std::size_t slot, NodeId c, bool try_diff) {
    if (cache_ != nullptr) cache_->ensure_unpacked(topo_.internal_index(c));
    const NodeState& cs = node_state(topo_.internal_index(c));
    const bool child_pre = scen_.pre_existing(c);
    const int leb = cs.eb + (child_pre ? 1 : 0);
    const int lnb = cs.nb + (child_pre ? 0 : 1);
    const Box cbox({cs.eb, cs.nb});
    const Box box({leb, lnb});
    ArenaTable<RequestCount> flow;
    flow.assign(*arena_, box.size(), kInvalidFlow);
    ArenaTable<Decision> dec;
    dec.resize_uninit(*arena_, box.size());
    ++merge_steps_;
    dp::compact_entries(cbox, cs.flow.span(), box, scratch_.left);
    const dp::EntryList& entries = scratch_.left;
    merge_iterations_ += entries.size();
    // A replica on c zeroes its flow and bumps e (pre-existing child) or n.
    const std::size_t place_stride =
        child_pre ? box.stride(0) : box.stride(1);
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const RequestCount cf = entries.flow[e];
      const std::uint32_t cflat = entries.flat[e];
      // Option A: no replica on c — its flow stays open.
      const std::size_t t = static_cast<std::size_t>(entries.dot[e]);
      if (cf < flow[t]) {
        flow[t] = cf;
        dec[t] = Decision{0, cflat, -1};
      }
      // Option B: replica on c absorbs cf (cf <= W by table validity).
      const std::size_t tp = t + place_stride;
      if (RequestCount{0} < flow[tp]) {
        flow[tp] = 0;
        dec[tp] = Decision{0, cflat, 0};
      }
    }
    finish_slot(s, slot, leb, lnb, flow, dec, try_diff);
  }

  /// Joins two merge-plan slots: counts add, flows add under the W cut.
  /// Runs through the shared kernel (serial — this DP has no pool — and
  /// lazy when resuming with one cleanly-diffed dirty operand).
  void merge_step(NodeState& s, const dp::MergePlan::Step& step,
                  std::uint32_t out, bool resume) {
    const int leb = s.slot_eb[step.left];
    const int lnb = s.slot_nb[step.left];
    const int reb = s.slot_eb[step.right];
    const int rnb = s.slot_nb[step.right];
    const int new_eb = leb + reb;
    const int new_nb = lnb + rnb;
    const Box lbox({leb, lnb});
    const Box rbox({reb, rnb});
    const Box new_box({new_eb, new_nb});
    ArenaTable<RequestCount> merged;
    merged.resize_uninit(*arena_, new_box.size());
    ArenaTable<Decision> dec;
    dec.resize_uninit(*arena_, new_box.size());
    ++merge_steps_;

    const dp::JoinInputs in{&lbox,
                            s.slot_flows[step.left].span(),
                            &rbox,
                            s.slot_flows[step.right].span(),
                            &new_box,
                            config_.capacity};

    dp::LazyJoin lazy;
    const dp::LazyJoin* lazy_ptr = nullptr;
    if (resume) {
      const SlotDiff ld = slot_diff_[step.left];
      const SlotDiff rd = slot_diff_[step.right];
      const ArenaTable<RequestCount>& old_flow = s.slot_flows[out];
      // Both operands may carry small diffs (rolling multi-delta batches);
      // the join sweeps the changed sets from both sides.
      if (old_flow.size() == new_box.size() &&
          s.slot_decisions[out].size() == new_box.size() &&
          s.slot_eb[out] == new_eb && s.slot_nb[out] == new_nb &&
          ld != SlotDiff::kUnknown && rd != SlotDiff::kUnknown) {
        if (ld == SlotDiff::kChanged) {
          lazy.changed_left = slot_changed_[step.left];
        }
        if (rd == SlotDiff::kChanged) {
          lazy.changed_right = slot_changed_[step.right];
        }
        lazy.old_flow = old_flow.span();
        lazy.old_dec = s.slot_decisions[out].span();
        lazy_ptr = &lazy;
      }
    }

    const dp::JoinStats js =
        dp::join_slots(in, {merged.data(), merged.size()},
                       {dec.data(), dec.size()}, /*pool=*/nullptr, scratch_,
                       lazy_ptr);
    merge_iterations_ += js.pairs;
    cells_skipped_ += js.cells_skipped;

    finish_slot(s, out, new_eb, new_nb, merged, dec, resume);
  }

  /// Folds the node's own client mass into the root slot; flat indices
  /// are unchanged.
  void fold_base(NodeState& s, RequestCount base,
                 const dp::MergePlan& mplan) {
    if (mplan.num_leaves() == 0) {
      s.eb = 0;
      s.nb = 0;
      s.flow.assign(*arena_, 1, base);
      return;
    }
    const std::uint32_t root = mplan.root_slot();
    s.eb = s.slot_eb[root];
    s.nb = s.slot_nb[root];
    s.flow.assign_copy(*arena_, s.slot_flows[root].span());
    for (RequestCount& f : s.flow) {
      if (f == kInvalidFlow) continue;
      f += base;
      if (f > config_.capacity) f = kInvalidFlow;
    }
  }

  /// Paper Algorithm 4, extended: for every (e, n) evaluate both root
  /// options and keep the cheapest overall (ties: fewer servers, then more
  /// reuse).
  RootChoice scan_root() const {
    const NodeId root = topo_.root();
    if (cache_ != nullptr) {
      cache_->ensure_unpacked(topo_.internal_index(root));
    }
    const NodeState& s = node_state(topo_.internal_index(root));
    const bool root_pre = scen_.pre_existing(root);
    const int e_total = static_cast<int>(scen_.num_pre_existing());
    RootChoice best;

    const auto consider = [&](int e, int n, bool place_root, int reused,
                              int created) {
      const int servers = reused + created;
      const double cost = static_cast<double>(servers) +
                          static_cast<double>(created) * config_.create +
                          static_cast<double>(e_total - reused) *
                              config_.delete_cost;
      constexpr double kTieEps = 1e-9;
      const bool better =
          cost < best.cost - kTieEps ||
          (cost <= best.cost + kTieEps &&
           (servers < best.servers ||
            (servers == best.servers && e + (place_root && root_pre) >
                                            best.e + (best.place_root &&
                                                      root_pre))));
      if (better) best = RootChoice{e, n, place_root, cost, servers};
    };

    for (int e = 0; e <= s.eb; ++e) {
      for (int n = 0; n <= s.nb; ++n) {
        const RequestCount f = s.flow[flat_idx(e, n, s.nb)];
        if (f == kInvalidFlow) continue;
        if (f == 0) {
          consider(e, n, /*place_root=*/false, e, n);
        }
        // Root server absorbs the residual flow f (<= W by table validity).
        if (root_pre) {
          consider(e, n, /*place_root=*/true, e + 1, n);
        } else {
          consider(e, n, /*place_root=*/true, e, n + 1);
        }
      }
    }
    return best;
  }

  /// Unwinds node j's merge tree from the root-slot flat index, adding
  /// child replicas to `placement`.
  void reconstruct(NodeId j, std::size_t flat, Placement& placement) const {
    // Clean nodes skipped by the warm solve may still be packed; the walk
    // reads their decisions.
    if (cache_ != nullptr) cache_->ensure_unpacked(topo_.internal_index(j));
    const NodeState& s = node_state(topo_.internal_index(j));
    const auto children = topo_.internal_children(j);
    if (children.empty()) {
      TREEPLACE_DCHECK(flat == 0);
      return;
    }
    const dp::MergePlan& mplan = plans_.get(children.size());
    reconstruct_slot(s, children, mplan, mplan.root_slot(), flat, placement);
  }

  void reconstruct_slot(const NodeState& s, std::span<const NodeId> children,
                        const dp::MergePlan& mplan, std::uint32_t slot,
                        std::size_t flat, Placement& placement) const {
    const Decision d = s.slot_decisions[slot][flat];
    if (slot < mplan.num_leaves()) {
      const NodeId c = children[slot];
      if (d.mode >= 0) placement.add(c, /*mode=*/0);
      reconstruct(c, d.right, placement);
      return;
    }
    const dp::MergePlan::Step& step =
        mplan.steps()[slot - mplan.num_leaves()];
    reconstruct_slot(s, children, mplan, step.left, d.left, placement);
    reconstruct_slot(s, children, mplan, step.right, d.right, placement);
  }

  const Topology& topo_;
  const Scenario& scen_;
  const MinCostConfig& config_;
  /// Session-owned states when warm-starting, else this solve's locals.
  dp::MinCostSubtreeCache* const cache_;
  /// Table storage: the cache's arena for warm solves, else a local one.
  TableArena own_arena_;
  TableArena* const arena_;
  mutable std::vector<NodeState> local_states_;
  mutable dp::MergePlanCache plans_;
  dp::JoinScratch scratch_;
  dp::RollingDiffBudget diff_budget_;
  /// Per-slot diff state of the node currently being processed.
  std::vector<SlotDiff> slot_diff_;
  std::vector<std::vector<std::uint32_t>> slot_changed_;
  std::uint64_t merge_iterations_ = 0;
  std::uint64_t merge_steps_ = 0;
  std::uint64_t cells_skipped_ = 0;
};

}  // namespace

MinCostResult solve_min_cost_with_pre(const Topology& topo,
                                      const Scenario& scen,
                                      const MinCostConfig& config) {
  TREEPLACE_CHECK(config.capacity > 0);
  TREEPLACE_CHECK(config.create >= 0.0);
  TREEPLACE_CHECK(config.delete_cost >= 0.0);
  MinCostSolver solver(topo, scen, config);
  MinCostResult result = solver.solve();
  if (result.feasible) {
    result.breakdown = evaluate_cost(
        topo, scen, result.placement,
        CostModel::simple(config.create, config.delete_cost));
  }
  return result;
}

}  // namespace treeplace
