// `pbench day`: three simulated days of diurnal traffic as a serve stream
// — the aggregated skew tree, then one scenario record per tick.
//
// This is `treeplace workload --aggregate` (1e5 users on 400 internal
// nodes) with three changes that keep runs with different workload seeds
// comparable while every seed still draws different days:
//   * the topology is always seed 42's and only the days' deltas come from
//     --seed, because solve time follows the tree's shape;
//   * each day has flash crowds at fixed ticks instead of at random ones.
//     A crowd can turn a warm tick into a near-cold solve costing as much
//     as ~100 ordinary ticks, and how many crowds a random day draws
//     varies a lot between seeds.  Each crowd here has the workload
//     engine's shape: the touched users' volumes ramp 1x-2x-3x-4x-3x-2x
//     over six ticks;
//   * the stream holds three consecutive days.  A day still has two or
//     three near-cold ticks where the diurnal curve moves the placement
//     (the morning crossing is sometimes crossed twice), each ~10% of the
//     day's solve time; over three days their count varies less.
#include <cmath>
#include <iostream>
#include <string>

#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "pbench.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/io.h"
#include "tree/scenario_delta.h"

namespace pbench {

using namespace treeplace;

namespace {

constexpr int kInternal = 400;
constexpr std::size_t kUsers = 100000;
constexpr std::uint64_t kTreeSeed = 42;
constexpr std::size_t kDays = 3;
constexpr std::size_t kFlashStarts[] = {84, 138};  // mid-morning, afternoon
constexpr double kFlashBoost[] = {1, 2, 3, 4, 3, 2};

double flash_boost(std::size_t tick) {
  for (const std::size_t start : kFlashStarts) {
    if (tick >= start && tick - start < std::size(kFlashBoost)) {
      return kFlashBoost[tick - start];
    }
  }
  return 1.0;
}

}  // namespace

int day_main(int argc, char** argv) {
  SkewTreeConfig gen;
  gen.num_internal = kInternal;
  gen.num_users = kUsers;
  const std::uint64_t day_seed = std::stoull(arg(argc, argv, "seed", "1"));
  Tree tree = generate_skew_tree(gen, kTreeSeed, 0);

  DiurnalConfig day;
  day.min_requests = gen.min_requests;
  day.max_requests = gen.max_requests;
  day.flash_probability = 0.0;
  DiurnalWorkload workload(tree.topology_ptr(), day,
                           make_rng(day_seed, 0, RngStream::kWorkloadUpdate));

  Aggregation agg(tree.topology_ptr());
  serialize_tree(Tree(agg.aggregated(), agg.aggregate(tree.scenario())),
                 std::cout);
  const std::size_t ticks = workload.ticks_per_day();
  for (std::size_t tick = 0; tick < kDays * ticks; ++tick) {
    DiurnalWorkload::Tick t = workload.next();
    const double boost = flash_boost(tick % ticks);
    for (ScenarioDelta& d : t.deltas) {
      d.requests = static_cast<RequestCount>(
          std::llround(static_cast<double>(d.requests) * boost));
      apply_delta(tree.scenario(), d);
    }
    std::cout << "treeplace-scenario v1 1\n";
    for (const ScenarioDelta& d : agg.map_deltas(tree.scenario(), t.deltas)) {
      switch (d.op) {
        case ScenarioDelta::Op::kSetRequests:
          std::cout << "R " << d.node << " " << d.requests << "\n";
          break;
        case ScenarioDelta::Op::kSetPreExisting:
          std::cout << "E " << d.node << " " << d.mode << "\n";
          break;
        case ScenarioDelta::Op::kClearPreExisting:
          std::cout << "X " << d.node << "\n";
          break;
        case ScenarioDelta::Op::kClearAllPre:
          std::cout << "Z\n";
          break;
      }
    }
  }
  return 0;
}

}  // namespace pbench
