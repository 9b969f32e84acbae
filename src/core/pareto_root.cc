#include "core/pareto_root.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

namespace treeplace::dp {

namespace {

using Priced = PruneScratch::Priced;

/// Whether `a` dominates `b` beyond the near-tie tolerances: no larger
/// flow, power lower by more than power_tol, and cost lower by more than
/// cost_tol or an equal cost key (the candidates then cost bit-
/// identically, so the power margin alone decides the frontier sweep).
bool dominates(const Priced& a, const Priced& b, double cost_tol,
               double power_tol) {
  return a.flow <= b.flow && a.power < b.power - power_tol &&
         (a.cost < b.cost - cost_tol || a.cost_key == b.cost_key);
}

}  // namespace

void prune_labels(const Box& box, const LabelPricing& pricing,
                  std::vector<Label>& labels, PruneScratch& scratch) {
  const std::size_t dims = box.dims();
  const std::size_t groups = pricing.group_cost.size();
  TREEPLACE_DCHECK(pricing.cost_group.size() == dims &&
                   pricing.power_coef.size() == dims);
  // Mixed radix of the cost key: a group's sum never exceeds the group's
  // box bounds, and the product of those radices is at most the box size.
  std::vector<std::uint64_t>& key_weight = scratch.key_weight;
  std::vector<std::uint64_t>& sums = scratch.sums;
  sums.assign(groups, 1);
  for (std::size_t d = 0; d < dims; ++d) {
    sums[pricing.cost_group[d]] +=
        static_cast<std::uint64_t>(box.bounds()[d]);
  }
  key_weight.assign(groups, 1);
  for (std::size_t g = groups; g-- > 1;) {
    key_weight[g - 1] = key_weight[g] * sums[g];
  }

  std::vector<Priced>& priced = scratch.priced;
  priced.resize(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    box.decode(labels[i].flat, scratch.digits);
    Priced& p = priced[i];
    p = Priced{labels[i].flow, 0.0, 0.0, 0};
    std::fill(sums.begin(), sums.end(), 0);
    for (std::size_t d = 0; d < dims; ++d) {
      const int digit = scratch.digits[d];
      p.power += static_cast<double>(digit) * pricing.power_coef[d];
      sums[pricing.cost_group[d]] += static_cast<std::uint64_t>(digit);
    }
    for (std::size_t g = 0; g < groups; ++g) {
      p.cost += static_cast<double>(sums[g]) * pricing.group_cost[g];
      p.cost_key += sums[g] * key_weight[g];
    }
  }

  // Online antichain: a label is dropped if a kept label dominates it,
  // else it evicts the kept labels it dominates.  The kept set stays
  // tiny, and the last dominator is tried first, so most labels cost one
  // comparison.
  std::vector<std::uint32_t>& kept = scratch.kept;
  kept.clear();
  const auto beats = [&](std::uint32_t a, std::uint32_t b) {
    return dominates(priced[a], priced[b], pricing.cost_tol,
                     pricing.power_tol);
  };
  std::size_t last_hit = 0;
  for (std::uint32_t i = 0; i < labels.size(); ++i) {
    bool dominated = last_hit < kept.size() && beats(kept[last_hit], i);
    for (std::size_t k = 0; !dominated && k < kept.size(); ++k) {
      if (beats(kept[k], i)) {
        dominated = true;
        last_hit = k;
      }
    }
    if (dominated) continue;
    std::erase_if(kept, [&](std::uint32_t k) { return beats(i, k); });
    kept.push_back(i);
  }
  std::sort(kept.begin(), kept.end());
  for (std::size_t k = 0; k < kept.size(); ++k) labels[k] = labels[kept[k]];
  labels.resize(kept.size());
}

void label_dots(const LabelTable& table, const Box& target,
                std::vector<std::uint64_t>& out) {
  std::vector<int> digits;
  out.clear();
  for (const Label& label : table.labels) {
    table.box.decode(label.flat, digits);
    std::uint64_t dot = 0;
    for (std::size_t d = 0; d < digits.size(); ++d) {
      dot += static_cast<std::uint64_t>(digits[d]) * target.stride(d);
    }
    out.push_back(dot);
  }
}

std::vector<RootCandidate> select_root_frontier(
    std::vector<RootCandidate> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const RootCandidate& a, const RootCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.power != b.power) return a.power < b.power;
              if (a.servers != b.servers) return a.servers < b.servers;
              if (a.flat != b.flat) return a.flat < b.flat;
              if (a.root_mode != b.root_mode) return a.root_mode < b.root_mode;
              if (a.flow != b.flow) return a.flow < b.flow;
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
  constexpr double kEps = 1e-9;
  std::vector<RootCandidate> swept;
  for (const RootCandidate& c : candidates) {
    if (swept.empty() || c.power < swept.back().power - kEps) {
      if (!swept.empty() && std::fabs(c.cost - swept.back().cost) <= kEps) {
        swept.back() = c;
      } else {
        swept.push_back(c);
      }
    }
  }
  return swept;
}

}  // namespace treeplace::dp
