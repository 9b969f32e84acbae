#include "serve/dispatcher.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "solver/registry.h"
#include "support/timer.h"

namespace treeplace::serve {

namespace {

std::size_t resolve_threads(const DispatcherConfig& config) {
  return config.threads ? config.threads : ThreadPool::default_thread_count();
}

}  // namespace

SolveDispatcher::SolveDispatcher(DispatcherConfig config)
    : pool_(resolve_threads(config)) {
  TREEPLACE_CHECK_MSG(!config.algos.empty(),
                      "SolveDispatcher needs at least one solver");
  queue_capacity_ =
      config.queue_capacity ? config.queue_capacity : 4 * pool_.size();
  stats_.threads = pool_.size();
  stats_.queue_capacity = queue_capacity_;
  solvers_.reserve(config.algos.size());
  stats_.per_solver.reserve(config.algos.size());
  for (const std::string& algo : config.algos) {
    auto solver = SolverRegistry::instance().create(algo);
    solver->set_options(Solver::Options{config.solver_threads});
    stats_.per_solver.push_back(SolverLatencyStats{.algo = algo});
    solvers_.push_back(std::move(solver));
  }
}

std::future<ServeResult> SolveDispatcher::submit(
    std::size_t solver_index, Instance instance,
    std::shared_ptr<SolveSession> session, std::vector<ScenarioDelta> deltas) {
  {
    std::unique_lock lock(mutex_);
    slot_freed_.wait(lock, [this] { return in_flight_ < queue_capacity_; });
    take_slot();
  }
  auto promise = std::make_shared<std::promise<ServeResult>>();
  std::future<ServeResult> result = promise->get_future();
  submit_reserved(solver_index, std::move(instance), std::move(session),
                  std::move(deltas), [promise](ServeResult done) {
                    promise->set_value(std::move(done));
                  });
  return result;
}

bool SolveDispatcher::try_reserve_slot() {
  std::scoped_lock lock(mutex_);
  if (in_flight_ >= queue_capacity_) return false;
  take_slot();
  return true;
}

void SolveDispatcher::take_slot() {
  ++in_flight_;
  ++stats_.submitted;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
}

void SolveDispatcher::release_reserved_slot() {
  std::scoped_lock lock(mutex_);
  --stats_.submitted;
  --in_flight_;
  slot_freed_.notify_one();
}

void SolveDispatcher::submit_reserved(std::size_t solver_index,
                                      Instance instance,
                                      std::shared_ptr<SolveSession> session,
                                      std::vector<ScenarioDelta> deltas,
                                      CompletionFn done) {
  TREEPLACE_CHECK_MSG(solver_index < solvers_.size(),
                      "solver index " << solver_index << " out of range");
  const Solver& solver = *solvers_[solver_index];
  if (!solver.info().accepts(instance.num_internal(),
                             instance.modes.count())) {
    ServeResult result;
    result.error = "solver '" + solver.name() +
                   "' does not accept this instance (" +
                   std::to_string(instance.num_internal()) +
                   " internal nodes, " +
                   std::to_string(instance.modes.count()) + " modes)";
    {
      // Release the reserved slot first, so a retry from inside `done`
      // can reserve again.
      std::scoped_lock lock(mutex_);
      ++stats_.completed;
      ++stats_.per_solver[solver_index].errors;
      --in_flight_;
      slot_freed_.notify_one();
    }
    done(std::move(result));
    return;
  }

  Stopwatch queued;
  std::shared_ptr<SolveSession> strand =
      any(solver.caps() & SolverCaps::kIncremental) ? session : nullptr;
  // run_solve releases the queue slot before returning, so by the time
  // `done` fires the caller may immediately reserve again.
  post(strand, [this, solver_index, instance = std::move(instance),
                session = std::move(session), deltas = std::move(deltas),
                queued, done = std::move(done)]() mutable {
    done(run_solve(solver_index, instance, session.get(), deltas,
                   queued.seconds()));
  });
}

void SolveDispatcher::post(const std::shared_ptr<SolveSession>& session,
                           std::function<void()> task) {
  if (session == nullptr) {
    pool_.submit(std::move(task));
    return;
  }
  Strand& strand = strand_of(*session);
  {
    std::scoped_lock lock(strand.mutex);
    strand.pending.push_back(std::move(task));
    if (strand.running) return;  // its draining worker will run the task
    strand.running = true;
  }
  // The drainer holds the session: its last task may drop the only other
  // reference before the drainer sees the strand empty.
  pool_.submit([session] { drain(strand_of(*session)); });
}

SolveDispatcher::Strand& SolveDispatcher::strand_of(SolveSession& session) {
  return *static_cast<Strand*>(session.attachment(
      []() -> std::shared_ptr<void> { return std::make_shared<Strand>(); }));
}

void SolveDispatcher::drain(Strand& strand) {
  // A throwing task must not strand the tasks queued behind it; the first
  // failure propagates after the strand is empty, as it would have from
  // the task's own pool submission.
  std::exception_ptr failure;
  for (;;) {
    std::function<void()> task;
    {
      std::scoped_lock lock(strand.mutex);
      if (strand.pending.empty()) {
        strand.running = false;
        break;
      }
      task = std::move(strand.pending.front());
      strand.pending.pop_front();
    }
    try {
      task();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

ServeResult SolveDispatcher::run_solve(
    std::size_t solver_index, const Instance& instance, SolveSession* session,
    const std::vector<ScenarioDelta>& deltas, double queue_seconds) {
  ServeResult result;
  result.queue_seconds = queue_seconds;
  const Solver& solver = *solvers_[solver_index];
  Stopwatch watch;
  try {
    if (session != nullptr && any(solver.caps() & SolverCaps::kIncremental)) {
      // The session's strand already runs its warm solves one at a time
      // in submission order; the mutex excludes save()/compact().
      std::scoped_lock session_lock(session->solve_mutex());
      result.solution = solver.solve(SolveRequest{instance, deltas, session});
      result.warm = true;
    } else {
      result.solution = solver.solve(instance);
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  result.solve_seconds = watch.seconds();

  std::scoped_lock lock(mutex_);
  SolverLatencyStats& stats = stats_.per_solver[solver_index];
  if (result.ok) {
    ++stats.solves;
    if (result.warm) ++stats.warm;
    if (!result.solution.feasible) ++stats.infeasible;
    stats.total_work += result.solution.stats.work;
  } else {
    ++stats.errors;
  }
  stats.total_queue_seconds += result.queue_seconds;
  stats.total_solve_seconds += result.solve_seconds;
  stats.max_solve_seconds =
      std::max(stats.max_solve_seconds, result.solve_seconds);
  ++stats_.completed;
  --in_flight_;
  slot_freed_.notify_one();
  return result;
}

DispatcherStats SolveDispatcher::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace treeplace::serve
