#include "core/power_dp.h"

#include <algorithm>
#include <cmath>

#include "core/dp_util.h"
#include "core/pareto_root.h"
#include "support/timer.h"

namespace treeplace {

namespace {

using dp::Box;
using dp::Decision;
using dp::Label;

/// Externally ownable per-node state (see core/dp_cache.h): the folded
/// label table, the label tables of the balanced merge tree
/// (dp::MergePlan) over the node's children, and the box bounds including
/// this node's own placement possibilities.
using NodeState = dp::PowerNodeState;

using dp::RootCandidate;

// --- Count-vector keys -----------------------------------------------------
//
// A key fixes what PowerEngine's table dimensions count.  It supplies the
// table width, the dimensions a replica increments, a node's own-option
// bounds, and the root's pricing; the engine does the rest.

/// The exact key (n_1..n_M, e_{1,1}..e_{M,M}): new servers per mode and
/// reused pre-existing servers per (original mode, new mode) pair.
class ExactKey {
 public:
  ExactKey(const Scenario& scen, const ModeSet& modes, const CostModel& costs)
      : scen_(scen),
        modes_(modes),
        costs_(costs),
        m_(modes.count()),
        pre_total_per_mode_(static_cast<std::size_t>(m_), 0) {
    for (NodeId e : scen_.pre_existing_nodes()) {
      const int o = scen_.original_mode(e);
      TREEPLACE_CHECK_MSG(o >= 0 && o < m_,
                          "pre-existing node " << e
                                               << " has original mode " << o
                                               << " outside the ModeSet");
      ++pre_total_per_mode_[static_cast<std::size_t>(o)];
    }
  }

  std::size_t dims() const {
    return static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
  }

  /// Visits the dimension that a replica on `node` at mode `w` increments.
  template <typename Visit>
  void replica_dims(NodeId node, int w, Visit&& visit) const {
    visit(scen_.pre_existing(node) ? dim_reused(scen_.original_mode(node), w)
                                   : dim_new(w));
  }

  /// Node j's own placement possibilities: one unit in any of its
  /// admissible dimensions.
  void add_own_options(NodeId j, std::vector<int>& bounds) const {
    for (int w = 0; w < m_; ++w) {
      replica_dims(j, w, [&](std::size_t d) { bounds[d] += 1; });
    }
  }

  /// Partial cost and power per count-vector digit, and the cost
  /// tolerance for count vectors summing to at most `units` over a tree
  /// with at most `max_pre` pre-existing servers; make_candidate adds the
  /// deletion constant and the operating cost the same way.  Its
  /// summation order depends on every count, so each dimension is its own
  /// cost group.
  void price_labels(double units, double max_pre,
                    dp::LabelPricing& pricing) const {
    const std::size_t dims = this->dims();
    pricing.cost_group.resize(dims);
    pricing.group_cost.assign(dims, 0.0);
    pricing.power_coef.assign(dims, 0.0);
    double max_cost_term = 1.0;
    for (std::size_t d = 0; d < dims; ++d) {
      pricing.cost_group[d] = static_cast<std::uint32_t>(d);
    }
    for (int w = 0; w < m_; ++w) {
      pricing.group_cost[dim_new(w)] = costs_.create(w) + 1.0;
      pricing.power_coef[dim_new(w)] = modes_.power(w);
      max_cost_term = std::max(max_cost_term, std::fabs(costs_.create(w)));
      for (int o = 0; o < m_; ++o) {
        pricing.group_cost[dim_reused(o, w)] =
            costs_.changed(o, w) + 1.0 - costs_.del(o);
        pricing.power_coef[dim_reused(o, w)] = modes_.power(w);
        max_cost_term =
            std::max({max_cost_term, std::fabs(costs_.changed(o, w)),
                      std::fabs(costs_.del(o))});
      }
    }
    pricing.cost_tol =
        dp::near_tie_tolerance((units + max_pre) * 3.0 * max_cost_term);
  }

  /// Prices one root count vector: the candidate's cost, power and
  /// server count (flow and operand cells are filled by the pairing).
  RootCandidate make_candidate(const std::vector<int>& counts,
                               std::uint64_t flat,
                               std::int8_t root_mode) const {
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
    return RootCandidate{cost, power, flat, root_mode, servers};
  }

 private:
  std::size_t dim_new(int w) const { return static_cast<std::size_t>(w); }
  std::size_t dim_reused(int o, int w) const {
    return static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(o) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(w);
  }

  const Scenario& scen_;
  const ModeSet& modes_;
  const CostModel& costs_;
  const int m_;
  std::vector<int> pre_total_per_mode_;
};

/// The reduced key (m_1..m_M, e_same, e_changed) of symmetric cost models:
/// servers per mode, and reused servers that kept or changed their mode.
class SymmetricKey {
 public:
  SymmetricKey(const Scenario& scen, const ModeSet& modes,
               const CostModel& costs)
      : scen_(scen),
        modes_(modes),
        m_(modes.count()),
        create_(costs.symmetric_create()),
        delete_(costs.symmetric_delete()),
        changed_same_(costs.symmetric_changed_same()),
        changed_diff_(costs.symmetric_changed_diff()) {}

  std::size_t dims() const { return static_cast<std::size_t>(m_) + 2; }

  /// Visits the dimensions that a replica on `node` at mode `w`
  /// increments: its mode, plus its same/changed reuse dimension.
  template <typename Visit>
  void replica_dims(NodeId node, int w, Visit&& visit) const {
    visit(dim_mode(w));
    if (scen_.pre_existing(node)) {
      visit(w == scen_.original_mode(node) ? dim_same() : dim_changed());
    }
  }

  /// Node j's own placement possibilities; a pre-existing node bounds both
  /// reuse dimensions by one whatever its original mode.
  void add_own_options(NodeId j, std::vector<int>& bounds) const {
    for (int w = 0; w < m_; ++w) bounds[dim_mode(w)] += 1;
    if (scen_.pre_existing(j)) {
      bounds[dim_same()] += 1;
      bounds[dim_changed()] += 1;
    }
  }

  /// Partial cost and power per digit, as make_candidate prices them, and
  /// the cost tolerance (see ExactKey): a server costs 1 + create unless
  /// reused, a reuse swaps the create and the deletion it avoids for its
  /// changed_same/diff price.  The candidate cost depends only on
  /// (servers, e_same, e_changed), so the per-mode server dimensions
  /// share one cost group.
  void price_labels(double units, double max_pre,
                    dp::LabelPricing& pricing) const {
    pricing.cost_group.assign(dims(), 0);
    pricing.cost_group[dim_same()] = 1;
    pricing.cost_group[dim_changed()] = 2;
    pricing.group_cost = {1.0 + create_, changed_same_ - create_ - delete_,
                          changed_diff_ - create_ - delete_};
    pricing.power_coef.assign(dims(), 0.0);
    for (int w = 0; w < m_; ++w) {
      pricing.power_coef[dim_mode(w)] = modes_.power(w);
    }
    pricing.cost_tol = dp::near_tie_tolerance(
        (units + max_pre) *
        (1.0 + std::fabs(create_) + std::fabs(changed_same_) +
         std::fabs(changed_diff_) + std::fabs(delete_)));
  }

  RootCandidate make_candidate(const std::vector<int>& counts,
                               std::uint64_t flat,
                               std::int8_t root_mode) const {
    int servers = 0;
    double power = 0.0;
    for (int w = 0; w < m_; ++w) {
      servers += counts[dim_mode(w)];
      power += static_cast<double>(counts[dim_mode(w)]) * modes_.power(w);
    }
    const int e_same = counts[dim_same()];
    const int e_changed = counts[dim_changed()];
    const int reused = e_same + e_changed;
    const int created = servers - reused;
    TREEPLACE_DCHECK(created >= 0);
    const int e_total = static_cast<int>(scen_.num_pre_existing());
    const double cost = static_cast<double>(servers) +
                        static_cast<double>(created) * create_ +
                        static_cast<double>(e_same) * changed_same_ +
                        static_cast<double>(e_changed) * changed_diff_ +
                        static_cast<double>(e_total - reused) * delete_;
    return RootCandidate{cost, power, flat, root_mode, servers};
  }

 private:
  std::size_t dim_mode(int w) const { return static_cast<std::size_t>(w); }
  std::size_t dim_same() const { return static_cast<std::size_t>(m_); }
  std::size_t dim_changed() const { return static_cast<std::size_t>(m_) + 1; }

  const Scenario& scen_;
  const ModeSet& modes_;
  const int m_;
  const double create_;
  const double delete_;
  const double changed_same_;
  const double changed_diff_;
};

// --- The decision walk -----------------------------------------------------

template <typename StateOf>
void walk_subtree(const Topology& topo, dp::MergePlanCache& plans,
                  const StateOf& state_of, NodeId j, std::size_t label,
                  Placement& placement);

/// Emits the placement below merge-plan slot `slot` of a node with state
/// `s`, for the slot label whose decision is `d`, reading every
/// descendant's state through `state_of(internal index)`.
template <typename StateOf>
void walk_slot(const Topology& topo, dp::MergePlanCache& plans,
               const StateOf& state_of, const NodeState& s,
               std::span<const NodeId> children, const dp::MergePlan& mplan,
               std::uint32_t slot, const Decision& d, Placement& placement) {
  if (slot < mplan.num_leaves()) {
    const NodeId c = children[slot];
    if (d.mode >= 0) placement.add(c, d.mode);
    walk_subtree(topo, plans, state_of, c, d.right, placement);
    return;
  }
  const dp::MergePlan::Step& step = mplan.steps()[slot - mplan.num_leaves()];
  walk_slot(topo, plans, state_of, s, children, mplan, step.left,
            s.slots[step.left].labels[d.left].dec, placement);
  walk_slot(topo, plans, state_of, s, children, mplan, step.right,
            s.slots[step.right].labels[d.right].dec, placement);
}

/// Emits the placement of the subtree rooted at `j` for label `label` of
/// its folded table (which carries its root-slot label's decision).
template <typename StateOf>
void walk_subtree(const Topology& topo, dp::MergePlanCache& plans,
                  const StateOf& state_of, NodeId j, std::size_t label,
                  Placement& placement) {
  const NodeState& s = state_of(topo.internal_index(j));
  const auto children = topo.internal_children(j);
  if (children.empty()) return;
  const dp::MergePlan& mplan = plans.get(children.size());
  walk_slot(topo, plans, state_of, s, children, mplan, mplan.root_slot(),
            s.table.labels[label].dec, placement);
}

// --- The engine ------------------------------------------------------------

/// The MinPower-BoundedCost DP over one count-vector key (ExactKey or
/// SymmetricKey): per node, child label tables are expanded by the child's
/// own options and joined along a balanced merge plan, every table pruned
/// to its non-dominated labels; the root pairs its last step's operands
/// directly (core/pareto_root.h).
template <typename Key>
class PowerEngine {
 public:
  PowerEngine(const Topology& topo, const Scenario& scen,
              const ModeSet& modes, const CostModel& costs,
              const PowerDPOptions& options)
      : key_(scen, modes, costs),
        topo_(topo),
        scen_(scen),
        modes_(modes),
        costs_(costs),
        m_(modes.count()),
        dims_(key_.dims()),
        cache_(options.cache),
        deltas_(options.deltas),
        local_states_(options.cache ? 0 : topo.num_internal()) {
    // A server adds at most two digits to a count vector (its mode and its
    // reuse dimension), and at most one server sits on each internal node,
    // so the margins follow from the topology size, never the scenario.
    const double nodes = static_cast<double>(topo.num_internal());
    const double units = 2.0 * nodes + 1.0;
    key_.price_labels(units, nodes, pricing_);
    double max_power = 0.0;
    for (int w = 0; w < m_; ++w) {
      max_power = std::max(max_power, std::fabs(modes_.power(w)));
    }
    pricing_.power_tol = dp::near_tie_tolerance(units * max_power);
    empty_operand_.labels.assign(1, Label{});
  }

  PowerDPResult solve() {
    Stopwatch watch;
    PowerDPResult result;
    Stopwatch phase;
    dp::DirtyPlan plan = dp::plan_warm_solve(
        topo_, cache_, dp::capacity_params(modes_, costs_, dims_),
        [this](NodeId j) { return signature(j); }, deltas_);
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

  void finish_stats(PowerDPResult& result, const Stopwatch& watch) const {
    result.stats.merge_pairs = merge_pairs_;
    result.stats.labels = labels_;
    result.stats.merge_steps = merge_steps_;
    result.stats.nodes_recomputed = nodes_recomputed_;
    result.stats.nodes_reused = nodes_reused_;
    result.stats.signatures_checked = signatures_checked_;
    result.stats.solve_seconds = watch.seconds();
    result.stats.phases = phases_;
  }

  /// (Re)builds node j's tables along the merge plan.  With a resumable
  /// cache entry (plan.resume), only dirty children's leaf slots, the
  /// internal slots on their root paths and — when the node's client mass
  /// changed — the base fold re-run; clean slots stay as the previous
  /// solve left them (see dp::plan_warm_solve).
  bool process_node(NodeId j, const dp::DirtyPlan& plan) {
    const std::size_t i = topo_.internal_index(j);
    NodeState& s = node_state(i);
    const RequestCount base = scen_.client_mass(j);
    if (base > modes_.max_capacity()) return false;
    const auto children = topo_.internal_children(j);
    const dp::MergePlan& mplan = plans_.get(children.size());

    const bool resume = plan.resume[i] != 0;
    const dp::SlotDirtiness slot_dirty =
        dp::plan_slot_dirtiness(plan, topo_, children, mplan, resume);
    if (!resume) s.slots.assign(mplan.num_slots(), {});
    // The root stops short of its last merge step: the root join pairs
    // that step's operands instead (see root_join).
    const bool is_root = j == topo_.root();
    const std::size_t steps =
        mplan.steps().size() - (is_root && children.size() > 1 ? 1 : 0);

    for (std::size_t c = 0; c < children.size(); ++c) {
      if (slot_dirty.dirty[c] != 0) expand_leaf(s.slots[c], children[c]);
    }
    for (std::size_t t = 0; t < steps; ++t) {
      const dp::MergePlan::Step& step = mplan.steps()[t];
      const std::uint32_t out = mplan.step_slot(t);
      if (slot_dirty.dirty[out] != 0) {
        join(s.slots[step.left], s.slots[step.right], s.slots[out]);
      }
    }
    if (is_root) return true;  // the root join reads the operand slots
    if (!resume || slot_dirty.any || plan.base_changed[i] != 0) {
      fold_base(s, base, mplan);
    }

    // Bounds seen by the parent: ours plus this node's own placement
    // possibilities.
    s.incl_bounds = s.table.box.bounds();
    key_.add_own_options(j, s.incl_bounds);
    return true;
  }

  /// Fills a leaf slot with child c's folded labels extended by the
  /// child's own placement options: every child label appears unchanged
  /// (no replica on c, its flow still open) and once per admissible mode
  /// w (a replica on c at w absorbs the flow, one unit in each of the
  /// key's dimensions for it).  Candidates are generated in the join
  /// kernel's order: child labels ascending, the open flow before the
  /// modes.
  void expand_leaf(dp::LabelTable& out, NodeId c) {
    const NodeState& cs = node_state(topo_.internal_index(c));
    Box box = dp::label_box(cs.incl_bounds);
    replica_offset_.assign(static_cast<std::size_t>(m_), 0);
    for (int w = 0; w < m_; ++w) {
      key_.replica_dims(c, w, [&](std::size_t d) {
        replica_offset_[static_cast<std::size_t>(w)] += box.stride(d);
      });
    }
    dp::label_dots(cs.table, box, ldots_);
    pending_.clear();
    for (std::uint32_t e = 0; e < cs.table.labels.size(); ++e) {
      const RequestCount f = cs.table.labels[e].flow;
      const std::uint64_t t = ldots_[e];
      pending_.push_back(Label{f, t, Decision{0, e, -1}});
      for (int w = modes_.mode_for_load(f); w < m_; ++w) {
        pending_.push_back(
            Label{0, t + replica_offset_[static_cast<std::size_t>(w)],
                  Decision{0, e, static_cast<std::int8_t>(w)}});
      }
    }
    settle(std::move(box), out);
  }

  /// Joins two slots: flows add (both stay open) under the W_M feasibility
  /// cut, pairs visited left label by left label.
  void join(const dp::LabelTable& left, const dp::LabelTable& right,
            dp::LabelTable& out) {
    std::vector<int> bounds(dims_);
    for (std::size_t d = 0; d < dims_; ++d) {
      bounds[d] = left.box.bounds()[d] + right.box.bounds()[d];
    }
    Box box = dp::label_box(std::move(bounds));
    dp::label_dots(left, box, ldots_);
    dp::label_dots(right, box, rdots_);
    const RequestCount cap = modes_.max_capacity();
    pending_.clear();
    for (std::uint32_t a = 0; a < left.labels.size(); ++a) {
      for (std::uint32_t b = 0; b < right.labels.size(); ++b) {
        ++merge_pairs_;
        const RequestCount f = left.labels[a].flow + right.labels[b].flow;
        if (f > cap) continue;
        pending_.push_back(
            Label{f, ldots_[a] + rdots_[b], Decision{a, b, -1}});
      }
    }
    settle(std::move(box), out);
  }

  /// Installs the candidates in pending_ (labels over `box`, in visiting
  /// order) as `out`: per count vector the least flow, the first such
  /// candidate winning ties as in the join kernel, then pruned to the
  /// non-dominated set.
  void settle(Box box, dp::LabelTable& out) {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Label& a, const Label& b) {
                       return a.flat != b.flat ? a.flat < b.flat
                                               : a.flow < b.flow;
                     });
    out.labels.clear();
    for (const Label& l : pending_) {
      if (out.labels.empty() || out.labels.back().flat != l.flat) {
        out.labels.push_back(l);
      }
    }
    dp::prune_labels(box, pricing_, out.labels, prune_scratch_);
    out.box = std::move(box);
    labels_ += out.labels.size();
    ++merge_steps_;
  }

  /// Folds the node's own client mass into the root slot: every flow grows
  /// by `base`, labels pushed past W_M drop out.  A common flow shift keeps
  /// every dominance relation among the survivors, so the folded list is
  /// still non-dominated.  Each folded label carries its root-slot label's
  /// decision, so the walk starts straight at the root slot.
  void fold_base(NodeState& s, RequestCount base,
                 const dp::MergePlan& mplan) {
    s.table.labels.clear();
    if (mplan.num_leaves() == 0) {
      s.table.box = Box(std::vector<int>(dims_, 0));
      s.table.labels.push_back(Label{base, 0, Decision{}});
      return;
    }
    const dp::LabelTable& root = s.slots[mplan.root_slot()];
    s.table.box = root.box;
    for (const Label& l : root.labels) {
      if (l.flow + base > modes_.max_capacity()) continue;
      s.table.labels.push_back(Label{l.flow + base, l.flat, l.dec});
    }
  }

  const dp::LabelTable& root_operand(const NodeState& s,
                                     std::uint32_t slot) const {
    return slot == dp::RootOperands::kNoSlot ? empty_operand_ : s.slots[slot];
  }

  /// The root join (core/pareto_root.h): pairs the root's two operand
  /// label lists under the W_M cut with the root's client mass folded in,
  /// and expands every feasible pair into the root's own options as
  /// (cost, power) candidates.
  std::vector<RootCandidate> root_join() {
    const NodeId root = topo_.root();
    const NodeState& s = node_state(topo_.internal_index(root));
    const dp::RootOperands ops =
        dp::root_operands(plans_.get(topo_.internal_children(root).size()));
    const dp::LabelTable& left = root_operand(s, ops.left);
    const dp::LabelTable& right = root_operand(s, ops.right);
    // Candidate flats index the box a full join of the operands would
    // fill, so they tie-break exactly as that join's output cells would.
    std::vector<int> bounds(dims_, 0);
    for (const dp::LabelTable* t : {&left, &right}) {
      for (std::size_t d = 0; d < t->box.dims(); ++d) {
        bounds[d] += t->box.bounds()[d];
      }
    }
    const Box rbox = dp::label_box(std::move(bounds));
    dp::label_dots(left, rbox, ldots_);
    dp::label_dots(right, rbox, rdots_);
    return dp::pair_root_labels(
        left.labels, ldots_, right.labels, rdots_, rbox,
        scen_.client_mass(root), modes_, merge_pairs_,
        [&](std::vector<int>& counts, int w) {
          key_.replica_dims(root, w, [&](std::size_t d) { counts[d] += 1; });
        },
        [this](const std::vector<int>& counts, std::uint64_t flat,
               std::int8_t w) { return key_.make_candidate(counts, flat, w); });
  }

  /// Places the root's own server, then walks a root-join candidate's
  /// operand labels down the root's merge plan.
  void reconstruct_root(const RootCandidate& c, Placement& placement) const {
    const NodeId root = topo_.root();
    if (c.root_mode >= 0) placement.add(root, c.root_mode);
    const auto children = topo_.internal_children(root);
    if (children.empty()) return;
    const NodeState& s = node_state(topo_.internal_index(root));
    const dp::MergePlan& mplan = plans_.get(children.size());
    const auto state_of = [this](std::size_t i) -> const NodeState& {
      return node_state(i);
    };
    dp::walk_root_operands(mplan, c, [&](std::uint32_t slot, std::size_t pos) {
      walk_slot(topo_, plans_, state_of, s, children, mplan, slot,
                s.slots[slot].labels[pos].dec, placement);
    });
  }

  const Key key_;
  const Topology& topo_;
  const Scenario& scen_;
  const ModeSet& modes_;
  const CostModel& costs_;
  const int m_;
  const std::size_t dims_;
  /// Session-owned states when warm-starting, else this solve's locals.
  dp::PowerSubtreeCache* const cache_;
  const std::span<const ScenarioDelta> deltas_;
  mutable std::vector<NodeState> local_states_;
  mutable dp::MergePlanCache plans_;
  dp::LabelPricing pricing_;
  dp::PruneScratch prune_scratch_;
  dp::LabelTable empty_operand_;  ///< the childless side of a root join
  std::vector<Label> pending_;    ///< candidates of the table being built
  std::vector<std::uint64_t> ldots_;
  std::vector<std::uint64_t> rdots_;
  /// Per-mode flat offset of a replica on the child being expanded.
  std::vector<std::size_t> replica_offset_;
  std::uint64_t merge_pairs_ = 0;
  std::uint64_t labels_ = 0;
  std::uint64_t merge_steps_ = 0;
  std::uint64_t nodes_recomputed_ = 0;
  std::uint64_t nodes_reused_ = 0;
  std::uint64_t signatures_checked_ = 0;
  PowerPhaseSeconds phases_;
};

}  // namespace

PowerDPResult solve_power_exact(const Topology& topo, const Scenario& scen,
                                const ModeSet& modes, const CostModel& costs,
                                const PowerDPOptions& options) {
  TREEPLACE_CHECK_MSG(costs.num_modes() == modes.count(),
                      "cost model and mode set disagree on M");
  PowerEngine<ExactKey> engine(topo, scen, modes, costs, options);
  return engine.solve();
}

PowerDPResult solve_power_symmetric(const Topology& topo,
                                    const Scenario& scen,
                                    const ModeSet& modes,
                                    const CostModel& costs,
                                    const PowerDPOptions& options) {
  TREEPLACE_CHECK_MSG(costs.num_modes() == modes.count(),
                      "cost model and mode set disagree on M");
  TREEPLACE_CHECK_MSG(costs.is_symmetric(),
                      "solve_power_symmetric requires a symmetric cost model");
  PowerEngine<SymmetricKey> engine(topo, scen, modes, costs, options);
  return engine.solve();
}

}  // namespace treeplace
