// 64-bit work/byte counter audit for the 10^5-10^6-node regime.
//
// A simulated day at million-user scale pushes per-session work counters
// (merge pairs, spliced cells, summed SolveStats::work) past 2^32 — the
// static_asserts below pin every accounting field that accumulates across
// solves to a fixed 64-bit type, and the runtime test drives the session
// accumulators past the 32-bit boundary, which would wrap (and fail) if
// any of them were narrowed.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/dp_update.h"
#include "core/power_common.h"
#include "gen/tree_gen.h"
#include "serve/connection.h"
#include "serve/dispatcher.h"
#include "serve/net_server.h"
#include "serve/stream_server.h"
#include "serve/topology_cache.h"
#include "solver/session.h"
#include "solver/solution.h"

namespace treeplace {
namespace {

// --- Compile-time audit: every cross-solve accumulator is exactly u64.
#define TREEPLACE_ASSERT_U64(expr) \
  static_assert(std::is_same_v<decltype(expr), std::uint64_t>)

TREEPLACE_ASSERT_U64(PowerSolveStats::merge_pairs);
TREEPLACE_ASSERT_U64(PowerSolveStats::table_cells);
TREEPLACE_ASSERT_U64(PowerSolveStats::merge_steps);
TREEPLACE_ASSERT_U64(PowerSolveStats::nodes_recomputed);
TREEPLACE_ASSERT_U64(PowerSolveStats::nodes_reused);
TREEPLACE_ASSERT_U64(PowerSolveStats::signatures_checked);
TREEPLACE_ASSERT_U64(MinCostResult::merge_iterations);
TREEPLACE_ASSERT_U64(SolveStats::work);
TREEPLACE_ASSERT_U64(SolveSession::Stats::warm_solves);
TREEPLACE_ASSERT_U64(SolveSession::Stats::cold_solves);
TREEPLACE_ASSERT_U64(SolveSession::Stats::nodes_recomputed);
TREEPLACE_ASSERT_U64(SolveSession::Stats::nodes_reused);
TREEPLACE_ASSERT_U64(SolveSession::Stats::merge_steps);
TREEPLACE_ASSERT_U64(SolveSession::Stats::signatures_checked);
TREEPLACE_ASSERT_U64(SolveSession::Stats::cells_skipped);
TREEPLACE_ASSERT_U64(SolveSession::Stats::bytes_resident);
TREEPLACE_ASSERT_U64(SolveSession::Stats::snapshots_dropped);
TREEPLACE_ASSERT_U64(SolveSession::Stats::tables_dropped);
TREEPLACE_ASSERT_U64(serve::SolverLatencyStats::solves);
TREEPLACE_ASSERT_U64(serve::SolverLatencyStats::warm);
TREEPLACE_ASSERT_U64(serve::SolverLatencyStats::total_work);
TREEPLACE_ASSERT_U64(serve::DispatcherStats::submitted);
TREEPLACE_ASSERT_U64(serve::DispatcherStats::completed);
TREEPLACE_ASSERT_U64(serve::NetServerSummary::accepted);
TREEPLACE_ASSERT_U64(serve::NetServerSummary::requests);
TREEPLACE_ASSERT_U64(serve::StreamServerSummary::requests);
TREEPLACE_ASSERT_U64(serve::StreamServerSummary::ok);
TREEPLACE_ASSERT_U64(serve::StreamServerSummary::infeasible);
TREEPLACE_ASSERT_U64(serve::StreamServerSummary::errors);
TREEPLACE_ASSERT_U64(serve::StreamServerSummary::over_budget);
TREEPLACE_ASSERT_U64(serve::TopologyCacheStats::hits);
TREEPLACE_ASSERT_U64(serve::TopologyCacheStats::session_bytes);
TREEPLACE_ASSERT_U64(serve::TopologyCacheStats::session_cells_skipped);

#undef TREEPLACE_ASSERT_U64

TEST(CounterAuditTest, SessionAccumulatorsSurviveThe32BitBoundary) {
  TreeGenConfig config;
  config.num_internal = 4;
  const Tree tree = generate_tree(config, 1, 0);
  SolveSession session(tree.topology_ptr());

  // Five recordings of ~2^31 each: every accumulator ends near 10^10 —
  // a value a u32 would have wrapped to ~1.6e9 less per wrap.
  const std::uint64_t step = (std::uint64_t{1} << 31) + 7;
  for (int i = 0; i < 5; ++i) {
    session.record_warm(step, step, step, step, step);
  }
  const SolveSession::Stats stats = session.stats();
  const std::uint64_t expected = 5 * step;
  EXPECT_GT(expected, std::uint64_t{1} << 32);
  EXPECT_EQ(stats.warm_solves, 5u);
  EXPECT_EQ(stats.nodes_recomputed, expected);
  EXPECT_EQ(stats.nodes_reused, expected);
  EXPECT_EQ(stats.merge_steps, expected);
  EXPECT_EQ(stats.signatures_checked, expected);
  EXPECT_EQ(stats.cells_skipped, expected);
}

}  // namespace
}  // namespace treeplace
