// Bounded-queue solve dispatcher: the serving loop's execution engine.
//
// A SolveDispatcher owns one thread pool (support/thread_pool.h) and one or
// more registry-created solver instances, and solves Instances behind a
// bounded work queue: at most `queue_capacity` solves are queued or
// running, so an arbitrarily long request stream is served with bounded
// memory no matter how far the reader runs ahead of the solvers.  There is
// one admission path: reserve a slot, then submit_reserved() with a
// completion callback.  The serving core (serve/connection.h) reserves
// without blocking and backs off on a full queue; submit() blocks for its
// slot and resolves a future from the callback.
//
// Solvers are configured once at construction (including the
// Solver::Options::threads knob for solver-internal parallelism) and then
// shared read-only across the pool — the race-freedom contract of
// solver/solver.h.  Per-solver latency statistics (queue wait, solve wall
// time, work counters) are aggregated under the same lock that implements
// the bounded queue.
//
// Warm solves sharing one SolveSession run in submission order: they queue
// on the session's strand (a FIFO the dispatcher attaches to the session,
// SolveSession::attachment), which at most one pool worker drains at a
// time.  A session's cache state — and so every work
// counter a warm solve reports — depends on which scenario it saw last,
// so the order must not be left to whichever worker reaches the session
// first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "solver/instance.h"
#include "solver/session.h"
#include "solver/solution.h"
#include "solver/solver.h"
#include "support/thread_pool.h"
#include "tree/scenario_delta.h"

namespace treeplace::serve {

struct DispatcherConfig {
  /// Registry names of the solvers to instantiate; submit() selects by
  /// index.  The serving CLI uses one; experiment 2 runs its optimizer and
  /// baseline chains through indices 0 and 1.
  std::vector<std::string> algos{"update-dp"};
  std::size_t threads = 0;         ///< 0 = ThreadPool::default_thread_count()
  std::size_t queue_capacity = 0;  ///< bound on in-flight solves; 0 = 4x threads
  int solver_threads = 1;          ///< Solver::Options::threads for every solver
};

/// The outcome of one dispatched solve.
struct ServeResult {
  bool ok = false;     ///< the solve ran and returned
  std::string error;   ///< capability rejection or solver throw when !ok
  Solution solution;
  /// The solve went through a SolveSession with an incremental-capable
  /// solver (it may still have recomputed everything on a cache miss).
  bool warm = false;
  double queue_seconds = 0.0;  ///< submit() to solve start
  double solve_seconds = 0.0;  ///< solve wall time on the worker
};

struct SolverLatencyStats {
  std::string algo;
  std::uint64_t solves = 0;      ///< completed, including infeasible
  std::uint64_t warm = 0;        ///< of which: session-backed warm solves
  std::uint64_t errors = 0;      ///< rejections + solver throws
  std::uint64_t infeasible = 0;
  double total_queue_seconds = 0.0;
  double total_solve_seconds = 0.0;
  double max_solve_seconds = 0.0;
  std::uint64_t total_work = 0;  ///< summed SolveStats::work counters
};

struct DispatcherStats {
  std::size_t threads = 0;         ///< pool size
  std::size_t queue_capacity = 0;  ///< bound on in-flight solves
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::size_t max_in_flight = 0;
  std::vector<SolverLatencyStats> per_solver;
};

class SolveDispatcher {
 public:
  explicit SolveDispatcher(DispatcherConfig config);

  /// Waits for every in-flight solve (the pool drains before teardown).
  ~SolveDispatcher() = default;

  SolveDispatcher(const SolveDispatcher&) = delete;
  SolveDispatcher& operator=(const SolveDispatcher&) = delete;

  /// Dispatches `instance` to solver `solver_index`: a blocking slot
  /// reservation (waits while queue_capacity() solves are in flight), then
  /// submit_reserved() with a callback that resolves the future.  A
  /// capability rejection (the solver does not accept the instance) or a
  /// solver throw resolves it with ok = false instead of propagating.
  ///
  /// When `session` is set and the solver supports incremental solves, the
  /// solve joins the session's strand: it runs Solver::solve(SolveRequest)
  /// after every earlier-submitted solve of that session, under the
  /// session's solve mutex (which save/compact also take).  `deltas` is
  /// the warm-start hint forwarded to the solver.
  std::future<ServeResult> submit(std::size_t solver_index, Instance instance,
                                  std::shared_ptr<SolveSession> session =
                                      nullptr,
                                  std::vector<ScenarioDelta> deltas = {});
  std::future<ServeResult> submit(Instance instance) {
    return submit(0, std::move(instance));
  }

  /// Completion callback for submit_reserved; runs on a pool worker thread
  /// (or inline on the submitting thread for capability rejections).
  using CompletionFn = std::function<void(ServeResult)>;

  /// Non-blocking admission for event-loop callers, split in two so that a
  /// full queue consumes nothing: try_reserve_slot() returns false when
  /// queue_capacity() solves are already in flight (the caller applies
  /// backpressure, still owning its request, and retries after a
  /// completion frees a slot); on true the caller holds a slot and must
  /// follow up with submit_reserved().  `done` is invoked exactly once
  /// with the result — after the slot has been released, so a retry from
  /// inside `done` cannot starve.  Capability rejections release the slot
  /// and invoke `done` inline.
  bool try_reserve_slot();
  void submit_reserved(std::size_t solver_index, Instance instance,
                       std::shared_ptr<SolveSession> session,
                       std::vector<ScenarioDelta> deltas, CompletionFn done);

  /// Undoes a try_reserve_slot() whose request turned out not to need the
  /// dispatcher (e.g. it resolved to an inline error record); the
  /// reservation leaves no trace in the stats.
  void release_reserved_slot();

  const Solver& solver(std::size_t solver_index = 0) const {
    return *solvers_[solver_index];
  }
  std::size_t num_solvers() const { return solvers_.size(); }
  std::size_t threads() const { return pool_.size(); }
  std::size_t queue_capacity() const { return queue_capacity_; }

  /// Snapshot of the aggregated per-solver latency stats.
  DispatcherStats stats() const;

 private:
  /// Books one in-flight slot; mutex_ held.
  void take_slot();
  ServeResult run_solve(std::size_t solver_index, const Instance& instance,
                        SolveSession* session,
                        const std::vector<ScenarioDelta>& deltas,
                        double queue_seconds);

  /// One session's warm solves waiting to run, in submission order, and
  /// whether a worker is draining them.
  struct Strand {
    std::mutex mutex;
    bool running = false;  ///< a worker is draining `pending`
    std::deque<std::function<void()>> pending;
  };
  static Strand& strand_of(SolveSession& session);

  /// Runs `task` on the pool — behind the strand of `session` when set,
  /// so same-session tasks run one at a time in submission order.
  void post(const std::shared_ptr<SolveSession>& session,
            std::function<void()> task);
  /// Pool task: runs the strand's pending tasks until it is empty.
  static void drain(Strand& strand);

  std::vector<std::unique_ptr<Solver>> solvers_;
  std::size_t queue_capacity_ = 0;
  // Everything the pooled tasks touch is declared before pool_, so the
  // pool's destructor (which joins the workers) runs first.
  mutable std::mutex mutex_;
  std::condition_variable slot_freed_;
  std::size_t in_flight_ = 0;
  DispatcherStats stats_;
  ThreadPool pool_;
};

}  // namespace treeplace::serve
