// Unified execution API for the analysis drivers.
//
// Every headline result of the paper — the (R_def, U) region maps of
// Figures 3-4, the Table 1 partial-fault catalogue and the
// completing-operation search — is an embarrassingly parallel grid of
// independent transient experiments. One ExecutionPolicy carries every
// knob those drivers share (worker threads, solver retry/backoff, failure
// semantics, checkpoint journal, progress reporting), and one
// ParallelGridRunner dispatches their grid points to a fixed-size worker
// pool:
//
//   * each point runs on a private per-worker DramColumn: by default a
//     reused compiled column restamped per point (CircuitMode::kReuse, the
//     compile-once pipeline), optionally a fresh build per point — either
//     way no solver state is shared between workers (see DramColumn's
//     threading note),
//   * indices are claimed in ascending order from an atomic cursor, so a
//     1-thread parallel run visits points exactly like the serial loop,
//   * results land in caller-owned per-index slots and are merged by grid
//     index afterwards, which makes parallel results BIT-IDENTICAL to
//     serial ones (same per-point inputs, deterministic reduction order),
//   * journal appends and the progress callback are serialized internally,
//     so checkpoint/resume stays correct under concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "pf/analysis/robust.hpp"
#include "pf/util/cancellation.hpp"

namespace pf::analysis {

class SessionCache;

/// How the engine obtains circuits and which grid points it solves — the
/// solver-side decisions of a sweep. One EnginePlan travels with the policy
/// through every driver (sweep_region, generate_table1, the completion
/// search) and through the pf_served job codec, so a job means the same
/// thing at every layer. Every point is solved by the one scalar transient
/// engine; the plan only decides how its circuit is obtained and whether
/// every point of a row is solved at all.
struct EnginePlan {
  /// How workers obtain circuits (see pf/analysis/sos_runner.hpp). kReuse
  /// (default) compiles once per sweep and restamps per point; kRebuild
  /// reconstructs everything per point (the reference escape hatch).
  CircuitMode circuit_mode = CircuitMode::kReuse;

  /// Adaptive boundary tracing: instead of evaluating every U-lane of a
  /// row, evaluate seed points, bisect between neighbours that disagree,
  /// and infer the agreeing gaps. Exact on maps whose rows are unions of
  /// bands wider than the seed stride (the paper's Figures 3-4 shape);
  /// narrower bands can be missed — see DESIGN.md §11.
  bool adaptive = false;
};

/// Execution knobs shared by sweep_region, generate_table1 and the
/// completion search. Replaces PR 1's SweepOptions / Table1Options::sweep /
/// Table1Options::completion_retry / CompletionSpec::retry scatter.
struct ExecutionPolicy {
  /// Worker threads for grid dispatch: 1 (default) runs serially on the
  /// calling thread, 0 resolves to the hardware thread count, N > 1 uses a
  /// fixed pool of N workers. Any thread count produces bit-identical
  /// results; threads only change wall-clock time.
  int threads = 1;

  /// Per-experiment solver retry/backoff (see pf/analysis/robust.hpp).
  RetryPolicy retry;

  /// Solver-side decisions: circuit lifecycle and adaptive tracing.
  EnginePlan plan;

  /// Cross-sweep session reuse (see pf/analysis/session_cache.hpp). When
  /// both fields are set and plan.circuit_mode == kReuse, sweep_region
  /// borrows a previously compiled SosSession for `session_family` from the
  /// cache instead of compiling from scratch, and returns it (with its
  /// snapshot trie intact) when the sweep completes.
  /// Campaign runners set the family to a key covering everything that
  /// affects compilation (defect topology + process parameters); results
  /// stay bit-identical because SosSession::run restamps and reset()s the
  /// borrowed column exactly like a fresh one.
  std::shared_ptr<SessionCache> session_cache;
  std::string session_family;

  /// Record unrecoverable points as Ffm::kSolveFailed cells (graceful
  /// degradation). When false the failure with the lowest grid index among
  /// the attempted points rethrows with full experiment context and the
  /// sweep result is discarded (workers stop claiming new points).
  bool record_failures = true;

  /// Non-empty: append every completed point to this CSV journal (see
  /// pf/analysis/checkpoint.hpp) and — when `resume` — skip points an
  /// earlier interrupted run already solved. Multi-sweep drivers
  /// (generate_table1) use it as a path *prefix*, one journal per sweep.
  std::string journal_path;
  bool resume = true;

  /// Optional per-point progress hook, called as progress(done, total)
  /// after every completed grid point. Invoked under the runner's mutex:
  /// the callback need not be thread-safe, but must be fast.
  std::function<void(size_t done, size_t total)> progress;

  /// Cooperative cancellation. The token is checked by ParallelGridRunner
  /// between grid points (workers stop claiming) and by the solver watchdog
  /// mid-point, so a signal handler or deadline tripping it stops the sweep
  /// within one Newton step, not one grid point. Copies of the policy share
  /// the token's state: tripping any copy trips them all. A cancelled run
  /// throws pf::CancelledError after in-flight points drain — with a
  /// journal armed, everything completed before the trip is already on
  /// disk, so the run is resumable.
  pf::CancellationToken cancel;

  /// Global wall-clock budget in seconds; <= 0 (default) = unlimited. The
  /// deadline is armed on the token's *shared* state the first time a
  /// runner sees the policy, so a multi-sweep driver (generate_table1)
  /// gets ONE budget across all its sweeps, not one per sweep.
  double deadline_seconds = 0.0;
};

/// The worker count `threads` resolves to (0 -> hardware concurrency,
/// negative -> 1, never below 1).
int resolve_worker_count(int threads);

/// Dispatches grid points to a fixed-size worker pool. One runner is
/// constructed per driver call; each run() spawns `workers() - 1` pool
/// threads (the calling thread is worker 0) and joins them before
/// returning, so no state leaks between runs.
class ParallelGridRunner {
 public:
  explicit ParallelGridRunner(const ExecutionPolicy& policy);

  /// Resolved worker count (>= 1).
  int workers() const { return workers_; }

  /// Run work(index, worker) for every index in [0, n). Indices are
  /// claimed in ascending order; `worker` is in [0, workers()) and stable
  /// for the duration of one work() call, so call sites can keep
  /// per-worker scratch state in a flat array. Results must go into
  /// per-index slots owned by the caller (distinct elements of a
  /// pre-sized vector are distinct memory locations — no locking needed).
  ///
  /// An exception thrown by work() cancels the run: workers stop claiming
  /// new indices, in-flight points finish, and the captured exception with
  /// the lowest index is rethrown on the calling thread. The progress
  /// callback of the policy is invoked (serialized) after every
  /// successfully completed index.
  ///
  /// Cooperative cancellation: the policy's token is checked before every
  /// index is claimed. Once it trips (signal, deadline), workers drain
  /// their in-flight point and run() throws pf::CancelledError on the
  /// calling thread. A pf::CancelledError thrown *by* work() (the solver
  /// watchdog saw the token mid-point) stops the run the same way — it is
  /// a cancellation, not a per-point error, so it never competes with real
  /// errors for the lowest-index slot.
  void run(size_t n, const std::function<void(size_t index, int worker)>& work)
      const;

 private:
  int workers_;
  std::function<void(size_t, size_t)> progress_;
  pf::CancellationToken cancel_;
};

}  // namespace pf::analysis
