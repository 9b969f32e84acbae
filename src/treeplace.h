// Umbrella header: the full public API of the treeplace library.
//
// treeplace reproduces "Power-aware replica placement and update strategies
// in tree networks" (Benoit, Renaud-Goud, Robert, 2010): optimal replica
// placement updates with pre-existing servers (Section 3), multi-mode
// power-aware placement (Section 4), the NP-completeness gadget, the greedy
// baseline of Wu/Lin/Liu, heuristics, and the Section 5 experiment suite.
//
// Two API layers:
//
//  * The *solver layer* (solver/) is the recommended entry point: build an
//    Instance (tree + modes + costs + optional budget), pick a strategy by
//    name from the SolverRegistry, and get a uniform Solution back:
//
//      Instance instance = Instance::single_mode(tree, /*W=*/10, 0.1, 0.01);
//      Solution solution = make_solver("update-dp")->solve(instance);
//
//    Every algorithm below is registered ("greedy", "greedy-pre",
//    "greedy-reuse", "update-dp", "power-exact", "power-sym",
//    "power-greedy", "power-ls", "exhaustive-cost", "exhaustive-power");
//    see solver/registry.h for the one-file recipe to add another.
//
//  * The *algorithm layer* (core/) exposes each algorithm's bespoke entry
//    point and result type for callers that need algorithm-specific detail
//    (DP ablation counters, the greedy capacity sweep's candidate list, ...).
#pragma once

#include "core/dp_update.h"            // MinCost-WithPre DP (Theorem 1)
#include "core/exhaustive.h"           // brute-force oracles
#include "core/greedy.h"               // greedy GR baseline [19]
#include "core/greedy_power.h"         // GR capacity sweep (Section 5.2)
#include "core/heuristics.h"           // Section 6 future-work heuristics
#include "core/np_reduction.h"         // Theorem 2 gadget (2-Partition)
#include "core/power_dp.h"             // power DP (Theorem 3), both keys
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "model/cost.h"
#include "model/modes.h"
#include "model/placement.h"
#include "sim/experiment1.h"
#include "sim/experiment2.h"
#include "sim/experiment3.h"
#include "solver/instance.h"
#include "solver/registry.h"
#include "solver/session.h"      // warm-start SolveSession
#include "solver/solution.h"
#include "solver/solver.h"
#include "support/prng.h"
#include "tree/io.h"
#include "tree/metrics.h"
#include "tree/scenario.h"
#include "tree/scenario_delta.h"
#include "tree/topology.h"
#include "tree/tree.h"
