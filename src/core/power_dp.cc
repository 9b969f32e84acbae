#include "core/power_dp.h"

#include <algorithm>
#include <cmath>

#include "core/dp_util.h"
#include "core/merge_kernel.h"
#include "core/pareto_root.h"
#include "support/timer.h"

namespace treeplace {

namespace {

using dp::ArenaTable;
using dp::Box;
using dp::Decision;
using dp::kInvalidFlow;
using dp::TableArena;

/// Externally ownable per-node state (see core/dp_cache.h): the final
/// folded table, the per-slot tables of the balanced merge tree
/// (dp::MergePlan) over the node's children, and the box bounds including
/// this node's own placement possibilities.
using NodeState = dp::PowerNodeState;

/// What a warm re-solve knows about a merge-plan slot's table relative to
/// the previous solve: untouched-or-identical, changed at a known set of
/// flats (the lazy-join input), or changed beyond tracking.
enum class SlotDiff : std::uint8_t { kClean, kChanged, kUnknown };

using dp::RootCandidate;

class ExactPowerSolver {
 public:
  ExactPowerSolver(const Topology& topo, const Scenario& scen,
                   const ModeSet& modes, const CostModel& costs,
                   const PowerDPOptions& options)
      : topo_(topo),
        scen_(scen),
        modes_(modes),
        costs_(costs),
        m_(modes.count()),
        dims_(static_cast<std::size_t>(m_) +
              static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_)),
        external_pool_(options.pool),
        lazy_pool_(options.pool ? 1 : options.threads),
        cache_(options.cache),
        arena_(options.cache ? &options.cache->arena() : &own_arena_),
        deltas_(options.deltas),
        local_states_(options.cache ? 0 : topo.num_internal()) {
    pre_total_per_mode_.assign(static_cast<std::size_t>(m_), 0);
    for (NodeId e : scen_.pre_existing_nodes()) {
      const int o = scen_.original_mode(e);
      TREEPLACE_CHECK_MSG(o >= 0 && o < m_,
                          "pre-existing node " << e
                                               << " has original mode " << o
                                               << " outside the ModeSet");
      ++pre_total_per_mode_[static_cast<std::size_t>(o)];
    }
  }

  PowerDPResult solve() {
    Stopwatch watch;
    PowerDPResult result;
    Stopwatch phase;
    dp::DirtyPlan plan = plan_dirty();
    dp::require_root_operands(topo_, cache_, plan);
    phases_.plan = phase.seconds();
    phase.reset();
    signatures_checked_ = plan.signatures_checked;
    for (NodeId j : topo_.internal_post_order()) {
      const std::size_t i = topo_.internal_index(j);
      if (plan.dirty[i] == 0) {
        ++nodes_reused_;
        continue;  // splice the cached subtree table in unchanged
      }
      if (!process_node(j, plan)) {
        phases_.join = phase.seconds();
        finish_stats(result, watch);
        return result;  // some client mass exceeds W_M: infeasible
      }
      if (cache_ != nullptr) cache_->commit(i, signature(j));
      ++nodes_recomputed_;
    }
    phases_.join = phase.seconds();
    phase.reset();
    const std::vector<RootCandidate> chosen =
        dp::select_root_frontier(root_join());
    phases_.root = phase.seconds();
    dp::emit_root_frontier(
        chosen, topo_, scen_, modes_, costs_,
        [this](const RootCandidate& c, Placement& placement) {
          reconstruct_root(c, placement);
        },
        result, phases_);
    finish_stats(result, watch);
    return result;
  }

 private:
  NodeState& node_state(std::size_t i) const {
    return cache_ != nullptr ? cache_->state(i) : local_states_[i];
  }

  dp::NodeSignature signature(NodeId j) const {
    return dp::NodeSignature{
        scen_.client_mass(j),
        scen_.pre_existing(j) ? scen_.original_mode(j) : -1};
  }

  dp::DirtyPlan plan_dirty() {
    return dp::plan_warm_solve(
        topo_, cache_, dp::capacity_params(modes_),
        [this](NodeId j) { return signature(j); }, deltas_);
  }

  void finish_stats(PowerDPResult& result, const Stopwatch& watch) const {
    result.stats.merge_pairs = merge_pairs_;
    result.stats.table_cells = table_cells_;
    result.stats.merge_steps = merge_steps_;
    result.stats.nodes_recomputed = nodes_recomputed_;
    result.stats.nodes_reused = nodes_reused_;
    result.stats.signatures_checked = signatures_checked_;
    result.stats.cells_skipped = cells_skipped_;
    result.stats.root_scan_work = root_scan_work_;
    result.stats.table_bytes = arena_->used_bytes();
    result.stats.solve_seconds = watch.seconds();
    result.stats.phases = phases_;
  }

  std::size_t dim_new(int w) const { return static_cast<std::size_t>(w); }
  std::size_t dim_reused(int o, int w) const {
    return static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(o) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(w);
  }
  /// Dimension that a replica on `node` at mode `w` increments.
  std::size_t dim_of(NodeId node, int w) const {
    return scen_.pre_existing(node)
               ? dim_reused(scen_.original_mode(node), w)
               : dim_new(w);
  }

  /// (Re)builds node j's table along the merge plan.  With a resumable
  /// cache entry (plan.resume), only dirty children's leaf slots, the
  /// internal slots on their root paths and — when the node's client mass
  /// changed — the base fold re-run; clean slots are spliced in from the
  /// snapshots (see dp::plan_warm_solve), and root-path joins whose dirty
  /// operand's value diff is small run lazily (core/merge_kernel.h).
  bool process_node(NodeId j, const dp::DirtyPlan& plan) {
    const std::size_t i = topo_.internal_index(j);
    if (cache_ != nullptr) cache_->ensure_unpacked(i);
    NodeState& s = node_state(i);
    const RequestCount base = scen_.client_mass(j);
    if (base > modes_.max_capacity()) return false;
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
      s.slot_boxes.assign(slots, Box());
      s.slot_flows.assign(slots, {});
      s.slot_decisions.assign(slots, {});
    }
    slot_diff_.assign(slots, SlotDiff::kClean);
    slot_changed_.resize(slots);
    // The root stops short of its last merge step: the root join pairs
    // that step's operands instead (see root_join).
    const bool is_root = j == topo_.root();
    const std::size_t steps =
        mplan.steps().size() - (is_root && k > 1 ? 1 : 0);
    if (resume) {
      // One rolling changed-cell footprint for the whole rebuild (see
      // dp::RollingDiffBudget): bursty batches that dirty many slots of
      // this node stay lazy as long as their aggregate churn is small.
      std::size_t dirty_cells = 0;
      for (std::size_t t = 0; t < slots; ++t) {
        if (slot_dirty.dirty[t] != 0) dirty_cells += s.slot_flows[t].size();
      }
      if (steps < mplan.steps().size() &&
          slot_dirty.dirty[mplan.root_slot()] != 0) {
        // The root slot is never stored; count the cells it would have
        // held, so the root's operand joins stay exactly as lazy.
        dirty_cells += dp::root_box(s, dp::root_operands(mplan), dims_).size();
      }
      diff_budget_.reset(dirty_cells);
    }

    for (std::size_t c = 0; c < k; ++c) {
      if (slot_dirty.dirty[c] != 0) expand_leaf(s, c, children[c], resume);
    }
    for (std::size_t t = 0; t < steps; ++t) {
      const std::uint32_t out = mplan.step_slot(t);
      if (slot_dirty.dirty[out] != 0) {
        merge_step(s, mplan.steps()[t], out, resume);
      }
    }
    if (is_root) return true;  // the root join reads the operand slots
    if (!resume || slot_dirty.any || plan.base_changed[i] != 0) {
      fold_base(s, base, mplan);
    }

    // Bounds seen by the parent: ours plus this node's own placement
    // possibilities (one unit in any of its admissible dimensions).
    s.incl_bounds = s.box.bounds();
    for (int w = 0; w < m_; ++w) s.incl_bounds[dim_of(j, w)] += 1;

    if (cache_ == nullptr) {
      // One-shot solve: the slot snapshots are never resumed — drop them,
      // keeping the decisions (reconstruction) and the final table (which
      // the parent's leaf expansion consumes and then clears).
      s.slot_boxes.clear();
      s.slot_boxes.shrink_to_fit();
      for (auto& t : s.slot_flows) t.clear(*arena_);
      s.slot_flows.clear();
      s.slot_flows.shrink_to_fit();
    }
    return true;
  }

  /// Installs a rebuilt slot table, releasing the previous snapshot.  When
  /// resuming, first diffs the new flows against it: the resulting changed
  /// set (or its absence) feeds the lazy-join eligibility of the next step
  /// up the merge tree — and, through the parent's leaf expansion, of the
  /// next node up the topology.
  void finish_slot(NodeState& s, std::size_t slot, Box&& box,
                   ArenaTable<RequestCount>& flow, ArenaTable<Decision>& dec,
                   bool try_diff) {
    if (try_diff) {
      ArenaTable<RequestCount>& old_flow = s.slot_flows[slot];
      if (old_flow.size() == flow.size() &&
          s.slot_boxes[slot].bounds() == box.bounds() &&
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
    s.slot_boxes[slot] = std::move(box);
  }

  /// Fills leaf slot `slot` with child c's table extended by the child's
  /// own placement options: every child state appears unchanged (no
  /// replica on c, its flow still open) and once per admissible mode w
  /// (replica on c at w absorbs the child's flow).
  void expand_leaf(NodeState& s, std::size_t slot, NodeId c, bool try_diff) {
    // A clean child spliced from a packed cache entry must expose its
    // final table again before this leaf re-expands it.
    if (cache_ != nullptr) cache_->ensure_unpacked(topo_.internal_index(c));
    NodeState& cs = node_state(topo_.internal_index(c));
    Box box{cs.incl_bounds};
    ArenaTable<RequestCount> flow;
    flow.assign(*arena_, box.size(), kInvalidFlow);
    ArenaTable<Decision> dec;
    dec.resize_uninit(*arena_, box.size());
    table_cells_ += box.size();
    ++merge_steps_;
    dp::compact_entries(cs.box, cs.flow.span(), box, scratch_.left);
    const dp::EntryList& entries = scratch_.left;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const RequestCount ef = entries.flow[e];
      const std::uint32_t eflat = entries.flat[e];
      const std::size_t t = static_cast<std::size_t>(entries.dot[e]);
      if (ef < flow[t]) {
        flow[t] = ef;
        dec[t] = Decision{0, eflat, -1};
      }
      for (int w = modes_.mode_for_load(ef); w < m_; ++w) {
        const std::size_t tw = t + box.stride(dim_of(c, w));
        if (RequestCount{0} < flow[tw]) {
          flow[tw] = 0;
          dec[tw] = Decision{0, eflat, static_cast<std::int8_t>(w)};
        }
      }
    }
    finish_slot(s, slot, std::move(box), flow, dec, try_diff);
    if (cache_ == nullptr) {
      // The child's final table has been consumed; only its decisions are
      // still needed (reconstruction).
      cs.flow.clear(*arena_);
    }
  }

  /// Joins two merge-plan slots: flows add (both stay open) under the
  /// W_M feasibility cut.  Runs through the shared kernel — sharded across
  /// the pool when profitable, lazily against the previous snapshot when
  /// resuming with one cleanly-diffed dirty operand — and is bit-identical
  /// to the serial scalar loop in every configuration.
  void merge_step(NodeState& s, const dp::MergePlan::Step& step,
                  std::uint32_t out, bool resume) {
    const Box& lbox = s.slot_boxes[step.left];
    const Box& rbox = s.slot_boxes[step.right];
    std::vector<int> new_bounds(dims_);
    for (std::size_t d = 0; d < dims_; ++d) {
      new_bounds[d] = lbox.bounds()[d] + rbox.bounds()[d];
    }
    Box new_box(std::move(new_bounds));
    ArenaTable<RequestCount> merged;
    merged.resize_uninit(*arena_, new_box.size());
    ArenaTable<Decision> dec;
    dec.resize_uninit(*arena_, new_box.size());
    table_cells_ += new_box.size();
    ++merge_steps_;

    const dp::JoinInputs in{&lbox,
                            s.slot_flows[step.left].span(),
                            &rbox,
                            s.slot_flows[step.right].span(),
                            &new_box,
                            modes_.max_capacity()};

    dp::LazyJoin lazy;
    const dp::LazyJoin* lazy_ptr = nullptr;
    if (resume) {
      const SlotDiff ld = slot_diff_[step.left];
      const SlotDiff rd = slot_diff_[step.right];
      const ArenaTable<RequestCount>& old_flow = s.slot_flows[out];
      // Both operands may carry small diffs (a rolling multi-delta batch
      // dirties several children of one node); the join then sweeps the
      // changed sets from both sides instead of bailing to a full rebuild.
      if (old_flow.size() == new_box.size() &&
          s.slot_decisions[out].size() == new_box.size() &&
          s.slot_boxes[out].bounds() == new_box.bounds() &&
          ld != SlotDiff::kUnknown && rd != SlotDiff::kUnknown) {
        if (ld == SlotDiff::kChanged) {
          lazy.changed_left = slot_changed_[step.left];
        }
        if (rd == SlotDiff::kChanged) {
          lazy.changed_right = slot_changed_[step.right];
        }
        lazy.old_flow = old_flow.span();
        lazy.old_dec = s.slot_decisions[out].span();
        if (dp::lazy_join_pays(in, lazy.changed_left.size(),
                               lazy.changed_right.size())) {
          lazy_ptr = &lazy;
        }
      }
    }

    const dp::JoinStats js =
        dp::join_slots(in, {merged.data(), merged.size()},
                       {dec.data(), dec.size()}, merge_pool(), scratch_,
                       lazy_ptr);
    merge_pairs_ += js.pairs;
    cells_skipped_ += js.cells_skipped;

    finish_slot(s, out, std::move(new_box), merged, dec, resume);
  }

  /// Folds the node's own client mass into the root slot: every open flow
  /// grows by `base`, entries pushed past W_M become invalid.  Flat
  /// indices are unchanged, so reconstruction starts straight at the root
  /// slot.
  void fold_base(NodeState& s, RequestCount base,
                 const dp::MergePlan& mplan) {
    if (mplan.num_leaves() == 0) {
      s.box = Box(std::vector<int>(dims_, 0));
      s.flow.assign(*arena_, 1, base);
      table_cells_ += 1;
      return;
    }
    const RequestCount w_max = modes_.max_capacity();
    const std::uint32_t root = mplan.root_slot();
    s.box = s.slot_boxes[root];
    s.flow.assign_copy(*arena_, s.slot_flows[root].span());
    for (RequestCount& f : s.flow) {
      if (f == kInvalidFlow) continue;
      f += base;
      if (f > w_max) f = kInvalidFlow;
    }
  }

  /// The root join (core/pareto_root.h): prunes the root's two operand
  /// slots to their non-dominated cells, pairs the survivors under the
  /// W_M cut with the root's client mass folded in, and expands every
  /// feasible pair into the root's own options as (cost, power)
  /// candidates.
  std::vector<RootCandidate> root_join() {
    const NodeId root = topo_.root();
    const std::size_t ri = topo_.internal_index(root);
    // The root may be clean (and packed) on a fully-warm solve; its
    // operand slots are re-read every solve.
    if (cache_ != nullptr) cache_->ensure_unpacked(ri);
    const NodeState& s = node_state(ri);
    const dp::RootOperands ops =
        dp::root_operands(plans_.get(topo_.internal_children(root).size()));
    const Box rbox = dp::root_box(s, ops, dims_);

    // Partial cost and power per count-vector digit; make_candidate adds
    // the deletion constant and the operating cost the same way.  Its
    // summation order depends on every count, so each dimension is its
    // own cost group.
    dp::RootPricing pricing;
    pricing.cost_group.resize(dims_);
    pricing.group_cost.assign(dims_, 0.0);
    pricing.power_coef.assign(dims_, 0.0);
    double max_cost_term = 1.0;
    double max_power = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      pricing.cost_group[d] = static_cast<std::uint32_t>(d);
    }
    for (int w = 0; w < m_; ++w) {
      pricing.group_cost[dim_new(w)] = costs_.create(w) + 1.0;
      pricing.power_coef[dim_new(w)] = modes_.power(w);
      max_cost_term = std::max(max_cost_term, std::fabs(costs_.create(w)));
      max_power = std::max(max_power, std::fabs(modes_.power(w)));
      for (int o = 0; o < m_; ++o) {
        pricing.group_cost[dim_reused(o, w)] =
            costs_.changed(o, w) + 1.0 - costs_.del(o);
        pricing.power_coef[dim_reused(o, w)] = modes_.power(w);
        max_cost_term =
            std::max({max_cost_term, std::fabs(costs_.changed(o, w)),
                      std::fabs(costs_.del(o))});
      }
    }
    double units = 1.0;  // bound on any candidate's summed counts
    for (const int b : rbox.bounds()) units += b;
    double pre_total = 0.0;
    for (const int n : pre_total_per_mode_) pre_total += n;
    pricing.cost_tol =
        dp::near_tie_tolerance((units + pre_total) * 3.0 * max_cost_term);
    pricing.power_tol = dp::near_tie_tolerance(units * max_power);
    dp::root_operand_cells(s, ops.left, rbox, pricing, root_left_,
                           root_scan_work_);
    dp::root_operand_cells(s, ops.right, rbox, pricing, root_right_,
                           root_scan_work_);

    return dp::pair_root_cells(
        root_left_, root_right_, rbox, scen_.client_mass(root), modes_,
        merge_pairs_,
        [&](std::vector<int>& counts, int w) {
          counts[dim_of(root, w)] += 1;
        },
        [this](const std::vector<int>& counts, std::size_t flat,
               std::int8_t w) { return make_candidate(counts, flat, w); });
  }

  /// Prices one root count vector: the candidate's cost, power and
  /// server count (flow and operand cells are filled by the pairing).
  RootCandidate make_candidate(const std::vector<int>& counts,
                               std::size_t flat, std::int8_t root_mode) const {
    int servers = 0;
    double cost = 0.0;
    double power = 0.0;
    for (int w = 0; w < m_; ++w) {
      const int n_w = counts[dim_new(w)];
      servers += n_w;
      cost += static_cast<double>(n_w) * costs_.create(w);
      power += static_cast<double>(n_w) * modes_.power(w);
    }
    std::vector<int> reused_per_mode(static_cast<std::size_t>(m_), 0);
    for (int o = 0; o < m_; ++o) {
      for (int w = 0; w < m_; ++w) {
        const int e_ow = counts[dim_reused(o, w)];
        servers += e_ow;
        reused_per_mode[static_cast<std::size_t>(o)] += e_ow;
        cost += static_cast<double>(e_ow) * costs_.changed(o, w);
        power += static_cast<double>(e_ow) * modes_.power(w);
      }
    }
    cost += static_cast<double>(servers);  // operating cost of 1 per server
    for (int o = 0; o < m_; ++o) {
      const int deleted = pre_total_per_mode_[static_cast<std::size_t>(o)] -
                          reused_per_mode[static_cast<std::size_t>(o)];
      TREEPLACE_DCHECK(deleted >= 0);
      cost += static_cast<double>(deleted) * costs_.del(o);
    }
    return RootCandidate{cost, power, static_cast<std::uint32_t>(flat),
                         root_mode, servers};
  }

  /// Places the root's own server, then walks a root-join candidate's
  /// operand cells down the root's merge plan.
  void reconstruct_root(const RootCandidate& c, Placement& placement) const {
    const NodeId root = topo_.root();
    if (c.root_mode >= 0) placement.add(root, c.root_mode);
    const auto children = topo_.internal_children(root);
    if (children.empty()) return;
    if (cache_ != nullptr) cache_->ensure_unpacked(topo_.internal_index(root));
    const NodeState& s = node_state(topo_.internal_index(root));
    const dp::MergePlan& mplan = plans_.get(children.size());
    dp::walk_root_operands(mplan, c, [&](std::uint32_t slot, std::size_t flat) {
      reconstruct_slot(s, children, mplan, slot, flat, placement);
    });
  }

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
      if (d.mode >= 0) placement.add(c, d.mode);
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
  const ModeSet& modes_;
  const CostModel& costs_;
  /// The configured long-lived pool, else this solve's lazy workers.
  ThreadPool* merge_pool() {
    return external_pool_ != nullptr ? external_pool_ : lazy_pool_.get();
  }

  const int m_;
  const std::size_t dims_;
  ThreadPool* const external_pool_;
  dp::LazyPool lazy_pool_;
  /// Session-owned states when warm-starting, else this solve's locals.
  dp::PowerSubtreeCache* const cache_;
  /// Table storage: the cache's arena for warm solves (tables outlive this
  /// solve), a solver-local one otherwise.
  TableArena own_arena_;
  TableArena* const arena_;
  const std::span<const ScenarioDelta> deltas_;
  mutable std::vector<NodeState> local_states_;
  mutable dp::MergePlanCache plans_;
  std::vector<int> pre_total_per_mode_;
  dp::JoinScratch scratch_;
  std::vector<dp::RootCell> root_left_;  ///< root-join operand scratch
  std::vector<dp::RootCell> root_right_;
  dp::RollingDiffBudget diff_budget_;
  /// Per-slot diff state of the node currently being processed.
  std::vector<SlotDiff> slot_diff_;
  std::vector<std::vector<std::uint32_t>> slot_changed_;
  std::uint64_t merge_pairs_ = 0;
  std::uint64_t table_cells_ = 0;
  std::uint64_t merge_steps_ = 0;
  std::uint64_t nodes_recomputed_ = 0;
  std::uint64_t nodes_reused_ = 0;
  std::uint64_t signatures_checked_ = 0;
  std::uint64_t cells_skipped_ = 0;
  std::uint64_t root_scan_work_ = 0;
  PowerPhaseSeconds phases_;
};

}  // namespace

PowerDPResult solve_power_exact(const Topology& topo, const Scenario& scen,
                                const ModeSet& modes, const CostModel& costs,
                                const PowerDPOptions& options) {
  TREEPLACE_CHECK_MSG(costs.num_modes() == modes.count(),
                      "cost model and mode set disagree on M");
  ExactPowerSolver solver(topo, scen, modes, costs, options);
  return solver.solve();
}

namespace {

void reconstruct_power_slot(const Topology& topo,
                            dp::PowerSubtreeCache& cache,
                            dp::MergePlanCache& plans,
                            const dp::PowerNodeState& s,
                            std::span<const NodeId> children,
                            const dp::MergePlan& mplan, std::uint32_t slot,
                            std::size_t flat, Placement& placement) {
  const Decision d = s.slot_decisions[slot][flat];
  if (slot < mplan.num_leaves()) {
    const NodeId c = children[slot];
    if (d.mode >= 0) placement.add(c, d.mode);
    reconstruct_power_subtree(topo, cache, plans, c, d.right, placement);
    return;
  }
  const dp::MergePlan::Step& step = mplan.steps()[slot - mplan.num_leaves()];
  reconstruct_power_slot(topo, cache, plans, s, children, mplan, step.left,
                         d.left, placement);
  reconstruct_power_slot(topo, cache, plans, s, children, mplan, step.right,
                         d.right, placement);
}

}  // namespace

void reconstruct_power_subtree(const Topology& topo,
                               dp::PowerSubtreeCache& cache,
                               dp::MergePlanCache& plans, NodeId j,
                               std::size_t flat, Placement& placement) {
  const std::size_t i = topo.internal_index(j);
  cache.ensure_unpacked(i);
  const dp::PowerNodeState& s = cache.state(i);
  const auto children = topo.internal_children(j);
  if (children.empty()) {
    TREEPLACE_DCHECK(flat == 0);
    return;
  }
  const dp::MergePlan& mplan = plans.get(children.size());
  reconstruct_power_slot(topo, cache, plans, s, children, mplan,
                         mplan.root_slot(), flat, placement);
}

}  // namespace treeplace
