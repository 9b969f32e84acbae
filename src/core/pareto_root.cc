#include "core/pareto_root.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

namespace treeplace::dp {

namespace {

/// Whether `a` dominates `b` beyond the near-tie tolerances: no larger
/// flow, power lower by more than power_tol, and cost lower by more than
/// cost_tol or an equal cost key (the candidates then cost bit-
/// identically, so the power margin alone decides the frontier sweep).
bool dominates(const RootCell& a, const RootCell& b, double cost_tol,
               double power_tol) {
  return a.flow <= b.flow && a.power < b.power - power_tol &&
         (a.cost < b.cost - cost_tol || a.cost_key == b.cost_key);
}

/// The non-dominated valid cells of `flow` (a table over `box`, whose
/// dimensions match `root_box`'s), in ascending flat order.  Dominance is
/// a strict partial order (the margins add up along a chain, and a key-
/// equal link keeps the cost), so the result is its set of maximal
/// elements whatever the scan order.
void pareto_cells(const Box& box, std::span<const RequestCount> flow,
                  const Box& root_box, const RootPricing& pricing,
                  std::vector<RootCell>& out, std::uint64_t& scan_work) {
  const std::size_t dims = box.dims();
  const std::size_t groups = pricing.group_cost.size();
  TREEPLACE_DCHECK(root_box.dims() == dims && flow.size() == box.size() &&
                   pricing.cost_group.size() == dims &&
                   pricing.power_coef.size() == dims);
  // Mixed radix of the cost key: a group's sum never exceeds its root-box
  // bounds, and the product of those radices is at most the root box size.
  std::vector<std::uint64_t> radix(groups, 1);
  for (std::size_t d = 0; d < dims; ++d) {
    radix[pricing.cost_group[d]] +=
        static_cast<std::uint64_t>(root_box.bounds()[d]);
  }
  std::vector<std::uint64_t> key_weight(groups, 1);
  for (std::size_t g = groups; g-- > 1;) {
    key_weight[g - 1] = key_weight[g] * radix[g];
  }

  // Online antichain: a scanned cell is dropped if a kept cell dominates
  // it, else it evicts the kept cells it dominates.  The kept set stays
  // tiny on real tables, and the last dominator is tried first, so most
  // cells cost one comparison.
  out.clear();
  std::vector<int> digits(dims, 0);
  std::vector<std::uint64_t> sums(groups);
  std::size_t last_hit = 0;
  for (std::size_t flat = 0; flat < box.size(); ++flat) {
    if (flow[flat] != kInvalidFlow) {
      RootCell cell;
      cell.flat = static_cast<std::uint32_t>(flat);
      cell.flow = flow[flat];
      std::fill(sums.begin(), sums.end(), 0);
      for (std::size_t d = 0; d < dims; ++d) {
        const int digit = digits[d];
        cell.dot += static_cast<std::uint64_t>(digit) * root_box.stride(d);
        cell.power += static_cast<double>(digit) * pricing.power_coef[d];
        sums[pricing.cost_group[d]] += static_cast<std::uint64_t>(digit);
      }
      for (std::size_t g = 0; g < groups; ++g) {
        cell.cost += static_cast<double>(sums[g]) * pricing.group_cost[g];
        cell.cost_key += sums[g] * key_weight[g];
      }
      const auto beats = [&](const RootCell& a, const RootCell& b) {
        ++scan_work;
        return dominates(a, b, pricing.cost_tol, pricing.power_tol);
      };
      bool dominated = false;
      if (last_hit < out.size() && beats(out[last_hit], cell)) {
        dominated = true;
      } else {
        for (std::size_t k = 0; k < out.size(); ++k) {
          if (beats(out[k], cell)) {
            dominated = true;
            last_hit = k;
            break;
          }
        }
      }
      if (!dominated) {
        std::erase_if(out,
                      [&](const RootCell& kept) { return beats(cell, kept); });
        out.push_back(cell);
      }
    }
    for (std::size_t d = dims; d-- > 0;) {
      if (++digits[d] <= box.bounds()[d]) break;
      digits[d] = 0;
    }
  }
  scan_work += box.size();
  std::sort(out.begin(), out.end(), [](const RootCell& a, const RootCell& b) {
    return a.flat < b.flat;
  });
}

}  // namespace

Box root_box(const PowerNodeState& s, const RootOperands& ops,
             std::size_t dims) {
  std::vector<int> bounds(dims, 0);
  for (const std::uint32_t slot : {ops.left, ops.right}) {
    if (slot == RootOperands::kNoSlot) continue;
    const std::vector<int>& b = s.slot_boxes[slot].bounds();
    for (std::size_t d = 0; d < dims; ++d) bounds[d] += b[d];
  }
  return Box(std::move(bounds));
}

void root_operand_cells(const PowerNodeState& s, std::uint32_t slot,
                        const Box& root_box, const RootPricing& pricing,
                        std::vector<RootCell>& out, std::uint64_t& scan_work) {
  if (slot == RootOperands::kNoSlot) {
    out.assign(1, RootCell{});
    return;
  }
  pareto_cells(s.slot_boxes[slot], s.slot_flows[slot].span(), root_box,
               pricing, out, scan_work);
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
