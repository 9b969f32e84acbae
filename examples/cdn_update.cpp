// CDN reconfiguration scenario — the paper's motivating application
// ("electronic, ISP, or VOD service delivery").
//
// A video-on-demand provider operates a three-level distribution tree:
// one origin, regional PoPs, and edge sites serving metro areas.  An
// overnight catalogue update shifts demand between metros; the operator
// must decide which existing replica servers to keep, which to
// decommission, and where to bring up new ones — exactly MinCost-WithPre.
// We compare the demand-oblivious greedy (install from scratch, paper [19])
// with the update DP, which prices reuse, creation and deletion.
#include <iostream>

#include "treeplace.h"

using namespace treeplace;

namespace {

struct Network {
  Tree tree;
  std::vector<NodeId> regions;
  std::vector<NodeId> edges;
};

/// Origin -> 3 regions -> 4 edge sites each; every edge site serves one
/// metro whose demand we control.
Network build_network(const std::vector<RequestCount>& metro_demand) {
  TREEPLACE_CHECK(metro_demand.size() == 12);
  TreeBuilder builder;
  Network net;
  const NodeId origin = builder.add_root();
  std::size_t metro = 0;
  for (int r = 0; r < 3; ++r) {
    const NodeId region = builder.add_internal(origin);
    net.regions.push_back(region);
    for (int e = 0; e < 4; ++e) {
      const NodeId edge = builder.add_internal(region);
      net.edges.push_back(edge);
      builder.add_client(edge, metro_demand[metro++]);
    }
  }
  net.tree = std::move(builder).build();
  return net;
}

void report(const Tree& tree, const Placement& placement,
            const CostBreakdown& breakdown, const char* label) {
  const FlowResult flows = compute_flows(tree, placement);
  std::cout << label << ": " << breakdown.servers << " servers (reused "
            << breakdown.reused << ", new " << breakdown.created
            << ", decommissioned " << breakdown.deleted << "), cost "
            << breakdown.cost << "\n   sites:";
  for (NodeId node : placement.nodes()) {
    std::cout << " n" << node << "(load " << flows.load(tree, node) << ")";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "CDN replica update — MinCost-WithPre in action\n\n";
  constexpr RequestCount kCapacity = 20;  // streams per replica server
  const MinCostConfig config{
      .capacity = kCapacity, .create = 0.4, .delete_cost = 0.15};

  // Evening demand profile; yesterday's placement was computed for it.
  Network net = build_network({12, 6, 3, 2, 9, 8, 2, 1, 5, 4, 4, 3});
  const MinCostResult evening = solve_min_cost_with_pre(net.tree, config);
  std::cout << "Evening profile (fresh install):\n";
  report(net.tree, evening.placement, evening.breakdown, "  plan");

  // Overnight catalogue update: region 0 heats up slightly past region 1,
  // region 2 cools down.  One region now has to host a replica; the greedy
  // absorbs the hottest one (region 0, no hardware there), while the DP
  // absorbs region 1, whose server from yesterday is still racked.
  const std::vector<RequestCount> morning{5, 4, 3, 2, 4, 4, 3, 2,
                                          2, 1, 1, 1};
  std::size_t metro = 0;
  for (NodeId edge : net.edges) {
    for (NodeId child : net.tree.children(edge)) {
      if (net.tree.is_client(child)) {
        net.tree.set_requests(child, morning[metro]);
      }
    }
    ++metro;
  }

  // Yesterday's servers are now pre-existing infrastructure.
  set_pre_existing_from_placement(net.tree, evening.placement);
  std::cout << "\nMorning profile, " << net.tree.num_pre_existing()
            << " servers already deployed:\n";

  // Option 1: ignore the existing fleet (greedy from scratch).
  const GreedyResult greedy = solve_greedy_min_count(net.tree, kCapacity);
  TREEPLACE_CHECK(greedy.feasible);
  const CostModel costs = CostModel::simple(config.create, config.delete_cost);
  report(net.tree, greedy.placement, evaluate_cost(net.tree, greedy.placement, costs),
         "  greedy (reuse-oblivious)");

  // Option 2: the update DP.
  const MinCostResult dp = solve_min_cost_with_pre(net.tree, config);
  TREEPLACE_CHECK(dp.feasible);
  report(net.tree, dp.placement, dp.breakdown, "  update DP");

  const double saving = evaluate_cost(net.tree, greedy.placement, costs).cost -
                        dp.breakdown.cost;
  std::cout << "\nThe DP plan saves " << saving
            << " cost units by keeping paid-for hardware in place.\n";
  return 0;
}
