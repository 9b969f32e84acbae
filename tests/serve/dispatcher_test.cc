#include "serve/dispatcher.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "solver/registry.h"
#include "support/prng.h"

namespace treeplace::serve {
namespace {

Instance make_instance(const std::shared_ptr<const Topology>& topo,
                       const Scenario& base, std::uint64_t stream) {
  Scenario scen = base;
  Xoshiro256 workload_rng = make_rng(500, stream, RngStream::kWorkloadUpdate);
  redraw_requests(scen, 1, 6, workload_rng);
  Xoshiro256 pre_rng = make_rng(500, stream, RngStream::kPreExisting);
  assign_random_pre_existing(scen, 3, pre_rng);
  return Instance::single_mode(topo, std::move(scen), /*capacity=*/10,
                               /*create=*/0.1, /*delete_cost=*/0.01);
}

class DispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TreeGenConfig config;
    config.num_internal = 24;
    config.client_probability = 0.8;
    tree_ = generate_tree(config, /*seed=*/51, /*index=*/0);
  }

  Tree tree_;
};

TEST_F(DispatcherTest, MatchesDirectSolves) {
  const auto topo = tree_.topology_ptr();
  const Scenario base = tree_.scenario();
  const auto reference_solver = make_solver("update-dp");

  DispatcherConfig config;
  config.algos = {"update-dp"};
  config.threads = 4;
  SolveDispatcher dispatcher(config);

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    futures.push_back(dispatcher.submit(make_instance(topo, base, i)));
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const ServeResult result = futures[i].get();
    ASSERT_TRUE(result.ok) << result.error;
    const Solution expected =
        reference_solver->solve(make_instance(topo, base, i));
    EXPECT_EQ(result.solution.feasible, expected.feasible);
    EXPECT_DOUBLE_EQ(result.solution.breakdown.cost, expected.breakdown.cost);
    EXPECT_EQ(result.solution.placement, expected.placement);
  }

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  ASSERT_EQ(stats.per_solver.size(), 1u);
  EXPECT_EQ(stats.per_solver[0].algo, "update-dp");
  EXPECT_EQ(stats.per_solver[0].solves, kRequests);
  EXPECT_EQ(stats.per_solver[0].errors, 0u);
  EXPECT_GT(stats.per_solver[0].total_solve_seconds, 0.0);
}

TEST_F(DispatcherTest, BoundedQueueNeverExceedsCapacity) {
  DispatcherConfig config;
  config.algos = {"update-dp"};
  config.threads = 2;
  config.queue_capacity = 3;
  SolveDispatcher dispatcher(config);
  EXPECT_EQ(dispatcher.queue_capacity(), 3u);

  const auto topo = tree_.topology_ptr();
  const Scenario base = tree_.scenario();
  std::vector<std::future<ServeResult>> futures;
  for (std::uint64_t i = 0; i < 20; ++i) {
    futures.push_back(dispatcher.submit(make_instance(topo, base, i)));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  // max_in_flight is sampled under the same lock that enforces the bound.
  EXPECT_LE(dispatcher.stats().max_in_flight, 3u);
  EXPECT_EQ(dispatcher.stats().completed, 20u);
}

TEST_F(DispatcherTest, MultipleSolversKeepSeparateStats) {
  DispatcherConfig config;
  config.algos = {"update-dp", "greedy"};
  config.threads = 2;
  SolveDispatcher dispatcher(config);
  ASSERT_EQ(dispatcher.num_solvers(), 2u);

  const auto topo = tree_.topology_ptr();
  const Scenario base = tree_.scenario();
  auto dp = dispatcher.submit(0, make_instance(topo, base, 1));
  auto gr1 = dispatcher.submit(1, make_instance(topo, base, 1));
  auto gr2 = dispatcher.submit(1, make_instance(topo, base, 2));
  EXPECT_TRUE(dp.get().ok);
  EXPECT_TRUE(gr1.get().ok);
  EXPECT_TRUE(gr2.get().ok);

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.per_solver[0].solves, 1u);
  EXPECT_EQ(stats.per_solver[1].solves, 2u);
}

TEST_F(DispatcherTest, CapabilityRejectionResolvesWithError) {
  DispatcherConfig config;
  // exhaustive-power caps N at 14; our 24-internal tree must be rejected.
  config.algos = {"exhaustive-power"};
  config.threads = 1;
  SolveDispatcher dispatcher(config);

  const auto topo = tree_.topology_ptr();
  const Scenario base = tree_.scenario();
  const ServeResult result =
      dispatcher.submit(make_instance(topo, base, 0)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("does not accept"), std::string::npos);
  EXPECT_EQ(dispatcher.stats().per_solver[0].errors, 1u);
  EXPECT_EQ(dispatcher.stats().completed, 1u);
}

TEST_F(DispatcherTest, SolverThrowResolvesWithError) {
  DispatcherConfig config;
  // power-sym rejects asymmetric cost models with a CheckError at solve
  // time; the dispatcher must surface it instead of crashing the worker.
  config.algos = {"power-sym"};
  config.threads = 1;
  SolveDispatcher dispatcher(config);

  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs({0.7, 0.1}, {0.01, 0.01},  // asymmetric create
                        {{0.0, 0.001}, {0.001, 0.0}});
  Instance instance{tree_.topology_ptr(), tree_.scenario(), modes, costs,
                    std::nullopt};
  const ServeResult result = dispatcher.submit(std::move(instance)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("symmetric"), std::string::npos);
  EXPECT_EQ(dispatcher.stats().per_solver[0].errors, 1u);
}

/// Work counters of `count` warm solves submitted back to back through
/// one session: a warm solve's work depends on the scenario its session
/// saw last, so it pins the order the solves actually ran in.
std::vector<std::uint64_t> session_work_stream(
    const std::shared_ptr<const Topology>& topo, const Scenario& base,
    std::size_t threads, std::size_t count) {
  DispatcherConfig config;
  config.algos = {"update-dp"};
  config.threads = threads;
  SolveDispatcher dispatcher(config);
  const auto session = std::make_shared<SolveSession>(topo);
  std::vector<std::future<ServeResult>> futures;
  std::vector<std::uint64_t> work(count);
  std::vector<std::promise<ServeResult>> reserved(count / 2);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      futures.push_back(
          dispatcher.submit(0, make_instance(topo, base, i % 7), session));
      continue;
    }
    // Odd requests take the event-loop path; spin for a slot like the
    // network server's backpressure retry.
    while (!dispatcher.try_reserve_slot()) std::this_thread::yield();
    std::promise<ServeResult>& done = reserved[i / 2];
    futures.push_back(done.get_future());
    dispatcher.submit_reserved(
        0, make_instance(topo, base, i % 7), session, {},
        [&done](ServeResult result) { done.set_value(std::move(result)); });
  }
  for (std::size_t i = 0; i < count; ++i) {
    const ServeResult result = futures[i].get();
    EXPECT_TRUE(result.ok && result.warm) << result.error;
    work[i] = result.solution.stats.work;
  }
  return work;
}

TEST_F(DispatcherTest, SameSessionWarmSolvesRunInSubmissionOrder) {
  const auto topo = tree_.topology_ptr();
  const Scenario base = tree_.scenario();
  constexpr std::size_t kRequests = 400;
  const std::vector<std::uint64_t> serial =
      session_work_stream(topo, base, 1, kRequests);
  EXPECT_EQ(session_work_stream(topo, base, 8, kRequests), serial);
}

TEST_F(DispatcherTest, SolverThreadsOptionPropagates) {
  DispatcherConfig config;
  config.algos = {"power-sym"};
  config.threads = 1;
  config.solver_threads = 4;
  SolveDispatcher dispatcher(config);
  EXPECT_EQ(dispatcher.solver().options().threads, 4);
}

}  // namespace
}  // namespace treeplace::serve
