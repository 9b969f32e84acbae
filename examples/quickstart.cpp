// Quickstart: build the paper's Figure 1 tree by hand, run the greedy
// baseline and the update DP, and print both solutions.
//
// The instance: root r with a local client, child A, grandchildren B
// (pre-existing server, 4 requests below) and C (7 requests below), server
// capacity W = 10.  With 2 requests at the root the optimum keeps B; with 4
// it deletes B and serves from C — the trade-off that makes greedy
// strategies suboptimal (paper Section 3.1).
#include <iostream>

#include "core/dp_update.h"
#include "core/greedy.h"
#include "model/placement.h"
#include "tree/io.h"
#include "tree/tree.h"

using namespace treeplace;

namespace {

struct Fig1Tree {
  Tree tree;
  NodeId r, a, b, c;
};

Fig1Tree make_fig1_tree(RequestCount root_requests) {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  builder.add_client(r, root_requests);
  const NodeId a = builder.add_internal(r);
  const NodeId b = builder.add_internal(a);
  builder.add_client(b, 4);
  const NodeId c = builder.add_internal(a);
  builder.add_client(c, 7);
  builder.set_pre_existing(b);  // the pre-existing replica of Figure 1
  return Fig1Tree{std::move(builder).build(), r, a, b, c};
}

void describe(const Tree& tree, const Placement& placement,
              const char* label) {
  const FlowResult flows = compute_flows(tree, placement);
  std::cout << "  " << label << ": servers at {";
  bool first = true;
  for (NodeId node : placement.nodes()) {
    std::cout << (first ? "" : ", ") << node
              << (tree.pre_existing(node) ? " (reused)" : " (new)")
              << " load=" << flows.load(tree, node);
    first = false;
  }
  std::cout << "}\n";
}

}  // namespace

int main() {
  std::cout << "treeplace quickstart — paper Figure 1\n\n";
  const MinCostConfig config{
      .capacity = 10, .create = 0.1, .delete_cost = 0.01};

  for (RequestCount root_requests : {RequestCount{2}, RequestCount{4}}) {
    Fig1Tree instance = make_fig1_tree(root_requests);
    std::cout << "Root client issues " << root_requests << " requests:\n";

    const GreedyResult gr =
        solve_greedy_min_count(instance.tree, config.capacity);
    describe(instance.tree, gr.placement, "greedy GR ");

    const MinCostResult dp = solve_min_cost_with_pre(instance.tree, config);
    describe(instance.tree, dp.placement, "update DP ");
    std::cout << "  DP cost " << dp.breakdown.cost << " ("
              << dp.breakdown.reused << " reused, " << dp.breakdown.created
              << " created, " << dp.breakdown.deleted << " deleted)\n\n";
  }

  std::cout << "Graphviz rendering of the 4-request instance:\n"
            << to_dot(make_fig1_tree(4).tree);
  return 0;
}
