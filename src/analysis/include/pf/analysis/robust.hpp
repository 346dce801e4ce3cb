// Fault-tolerant execution of single (defect, floating-voltage, SOS)
// experiments: retry with progressively tightened solver options, bounded by
// per-attempt watchdogs, with structured failure context.
//
// The paper's analysis grids (Figures 3-4, Table 1) are thousands of
// independent SPICE experiments; production-scale sweeps must survive a
// non-convergent point instead of discarding every completed one. This layer
// wraps run_sos:
//
//   attempt 1   the caller's SimOptions, plus watchdogs,
//   attempt k   dt_initial and dt_min shrunk, the Newton iteration cap
//               raised and the damping clamp tightened (all per RetryPolicy),
//
// until the attempt budget is exhausted. Every failure message carries the
// experiment context (defect, line, R_def, U, SOS notation, attempt count)
// so sweep-level logs are actionable. Deterministic fault injection for
// exercising these paths lives in pf/spice/fault_injection.hpp; the
// experiment keys used by the sweep engines are grid_point_key() and
// completion_key().
#pragma once

#include <string>
#include <vector>

#include "pf/analysis/sos_runner.hpp"

namespace pf::analysis {

/// Knobs of the retry/backoff loop. Attempt 1 runs with the caller's
/// SimOptions (plus watchdogs); each later attempt applies the scales once
/// more.
struct RetryPolicy {
  int max_attempts = 3;             ///< total attempts per experiment
  double dt_initial_scale = 0.25;   ///< initial-timestep shrink per retry
  double dt_min_scale = 0.25;       ///< fatal-timestep floor shrink per retry
  int extra_nr_iters = 40;          ///< Newton cap increase per retry
  double v_step_limit_scale = 0.5;  ///< damping clamp shrink per retry

  /// Per-attempt watchdogs (mapped onto SimOptions); they bound a
  /// pathological grid point instead of letting it hang a sweep.
  uint64_t watchdog_nr_iters = 1000000;  ///< Newton budget (0 = off)
  double watchdog_wall_seconds = 0.0;    ///< wall budget [s] (0 = off)

  bool operator==(const RetryPolicy&) const = default;
};

/// Identification of one experiment, used for failure messages and as the
/// fault-injection context key.
struct ExperimentContext {
  std::string key;     ///< injection context (empty: no injection scoping)
  std::string defect;  ///< defect display name
  std::string line;    ///< floating-line label
  double r_def = 0.0;  ///< defect resistance [Ohm]
  double u = 0.0;      ///< floating initial voltage [V]
  std::string sos;     ///< SOS notation

  std::string describe() const;
};

/// Result of a retried experiment. When !solved, `outcome` is default
/// constructed and `error` holds the last failure with full context.
struct RobustOutcome {
  SosOutcome outcome;
  bool solved = false;
  int attempts = 0;  ///< attempts actually made
  std::string error;
};

/// The caller's SimOptions after `attempt - 1` tightening rounds, with the
/// policy's watchdogs applied.
spice::SimOptions tightened_sim_options(const spice::SimOptions& base,
                                        const RetryPolicy& policy,
                                        int attempt);

/// run_sos under the retry policy. Never throws for solver failures; any
/// pf::Error from the electrical experiment is converted into a failed
/// RobustOutcome after the attempt budget is spent. This overload rebuilds
/// a fresh column per attempt (CircuitMode::kRebuild semantics).
RobustOutcome run_sos_robust(const dram::DramParams& params,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe = false);

/// Same retry loop on a reused per-worker session (CircuitMode::kReuse):
/// attempt k restamps `defect.resistance` and the tightened options onto the
/// session's compiled column and resets it, which is bit-identical to
/// rebuilding — both overloads share one attempt-loop implementation, so the
/// fresh and reused flavors cannot drift. `base` supplies the attempt-1
/// SimOptions (including the sweep's cancellation token); `defect` must
/// match the topology the session was compiled for.
RobustOutcome run_sos_robust(SosSession& session,
                             const spice::SimOptions& base,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe = false);

/// The same retry loop for several SOSes at one (defect, line, U) point —
/// the per-point call of the multi-SOS sweep; the single-SOS overloads
/// above are this call with one SOS. Attempt 1 runs every SOS as one batch
/// (SosSession::run_all: shared phases are solved once) under ONE
/// declaration of ctx.key; an SOS whose attempt 1 failed then retries
/// alone, attempt k under its own declaration, exactly like the
/// single-SOS loop. Without an armed fault plan result i therefore equals
/// the single-SOS call for soses[i]. Each result's context names its own
/// SOS (ctx.sos is replaced). The rebuild overload shares nothing: every
/// SOS of every attempt runs on a fresh column.
std::vector<RobustOutcome> run_sos_robust(
    const dram::DramParams& params, const dram::Defect& defect,
    const dram::FloatingLine* line, double u,
    const std::vector<faults::Sos>& soses, const RetryPolicy& policy,
    const ExperimentContext& ctx, bool idle_before_observe = false);
std::vector<RobustOutcome> run_sos_robust(
    SosSession& session, const spice::SimOptions& base,
    const dram::Defect& defect, const dram::FloatingLine* line, double u,
    const std::vector<faults::Sos>& soses, const RetryPolicy& policy,
    const ExperimentContext& ctx, bool idle_before_observe = false);

/// Injection-context key used by sweep_region for the grid point (ix, iy).
std::string grid_point_key(size_t ix, size_t iy);

/// Injection-context key used by the completion search for a probe point.
std::string completion_key(double r_def, double u);

}  // namespace pf::analysis
