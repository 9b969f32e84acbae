// The diurnal workload engine driven through the serve stream format —
// the library-level twin of `treeplace workload | treeplace serve`.
//
// A DiurnalWorkload's delta batches are rendered as `treeplace-scenario`
// records (the grammar of serve/wire.h) and served by a
// StreamServer twice: once against the user-level skew tree, once against
// its Aggregation with each batch folded through map_deltas.  The two
// streams must agree on every objective value (cost, power, server
// count) — the aggregation exactness contract surfacing at the serving
// boundary — and the aggregate stream must be materially smaller.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "serve/stream_server.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/io.h"
#include "tree/scenario_delta.h"
#include "tree/tree.h"

namespace treeplace::serve {
namespace {

void print_delta_line(std::ostream& os, const ScenarioDelta& d) {
  switch (d.op) {
    case ScenarioDelta::Op::kSetRequests:
      os << "R " << d.node << " " << d.requests << "\n";
      break;
    case ScenarioDelta::Op::kSetPreExisting:
      os << "E " << d.node << " " << d.mode << "\n";
      break;
    case ScenarioDelta::Op::kClearPreExisting:
      os << "X " << d.node << "\n";
      break;
    case ScenarioDelta::Op::kClearAllPre:
      os << "Z\n";
      break;
  }
}

/// cost=...power=...servers= of each result line — placements are
/// compared via values, not node ids, because aggregation renumbers the
/// topology.  Out-param (not return) so ASSERT_NE can bail.
void objective_columns(const std::string& output,
                       std::vector<std::string>& values) {
  values = {};
  std::istringstream is(output);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("result ", 0) != 0) continue;
    const auto cost = line.find("cost=");
    const auto reused = line.find(" reused=");
    ASSERT_NE(cost, std::string::npos) << line;
    ASSERT_NE(reused, std::string::npos) << line;
    values.push_back(line.substr(cost, reused - cost));
  }
}

TEST(WorkloadStreamTest, AggregatedStreamServesIdenticalObjectiveValues) {
  SkewTreeConfig gen;
  gen.num_internal = 50;
  gen.num_users = 3000;
  Tree tree = generate_skew_tree(gen, /*seed=*/91, /*index=*/0);
  Aggregation aggregation(tree.topology_ptr());

  DiurnalConfig day;
  day.touch_fraction = 0.05;
  DiurnalWorkload workload(tree.topology_ptr(), day, Xoshiro256(92));

  std::ostringstream user_stream;
  std::ostringstream agg_stream;
  user_stream << serialize_tree(tree);
  agg_stream << serialize_tree(
      Tree(aggregation.aggregated(), aggregation.aggregate(tree.scenario())));

  std::size_t user_records = 0;
  std::size_t agg_records = 0;
  for (int tick = 0; tick < 4; ++tick) {
    DiurnalWorkload::Tick t = workload.next();
    for (const ScenarioDelta& d : t.deltas) apply_delta(tree.scenario(), d);
    user_stream << "treeplace-scenario v1 1\n";
    for (const ScenarioDelta& d : t.deltas) {
      print_delta_line(user_stream, d);
    }
    agg_stream << "treeplace-scenario v1 1\n";
    const std::vector<ScenarioDelta> mapped =
        aggregation.map_deltas(tree.scenario(), t.deltas);
    for (const ScenarioDelta& d : mapped) print_delta_line(agg_stream, d);
    user_records += t.deltas.size();
    agg_records += mapped.size();
  }
  // The fold is what makes million-user serving tractable: records per
  // tick bounded by touched attachment points, not touched users.
  EXPECT_LT(agg_records, user_records);

  StreamServerConfig config;
  config.dispatcher.algos = {"power-sym"};
  config.dispatcher.threads = 2;
  config.modes = ModeSet({40000, 80000}, 12.5, 3.0);
  config.costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  config.project_original_modes = false;

  std::istringstream user_in(user_stream.str());
  std::ostringstream user_out;
  const StreamServerSummary user_summary =
      StreamServer(config).serve(user_in, user_out);
  std::istringstream agg_in(agg_stream.str());
  std::ostringstream agg_out;
  const StreamServerSummary agg_summary =
      StreamServer(config).serve(agg_in, agg_out);

  EXPECT_EQ(user_summary.ok, 5u);  // base solve + 4 ticks
  EXPECT_EQ(agg_summary.ok, 5u);
  EXPECT_FALSE(user_summary.stream_error);
  EXPECT_FALSE(agg_summary.stream_error);

  std::vector<std::string> user_values;
  std::vector<std::string> agg_values;
  objective_columns(user_out.str(), user_values);
  objective_columns(agg_out.str(), agg_values);
  ASSERT_EQ(user_values.size(), 5u);
  EXPECT_EQ(user_values, agg_values);
}

}  // namespace
}  // namespace treeplace::serve
