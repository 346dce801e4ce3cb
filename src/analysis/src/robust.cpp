#include "pf/analysis/robust.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "pf/spice/fault_injection.hpp"
#include "pf/util/error.hpp"
#include "pf/util/log.hpp"

namespace pf::analysis {

std::string ExperimentContext::describe() const {
  std::ostringstream os;
  os << "defect=" << (defect.empty() ? "?" : defect);
  if (!line.empty()) os << ", line=" << line;
  os << ", R_def=" << r_def << " Ohm, U=" << u << " V";
  if (!sos.empty()) os << ", SOS=" << sos;
  return os.str();
}

spice::SimOptions tightened_sim_options(const spice::SimOptions& base,
                                        const RetryPolicy& policy,
                                        int attempt) {
  spice::SimOptions o = base;
  o.max_total_nr_iters = policy.watchdog_nr_iters;
  o.max_wall_seconds = policy.watchdog_wall_seconds;
  for (int k = 1; k < attempt; ++k) {
    o.dt_initial *= policy.dt_initial_scale;
    o.dt_min *= policy.dt_min_scale;
    o.max_nr_iters += policy.extra_nr_iters;
    o.v_step_limit *= policy.v_step_limit_scale;
  }
  return o;
}

namespace {

/// The retry loop shared by the rebuild and session overloads; `attempt_fn`
/// runs one attempt under the (already tightened) options it is given.
template <typename AttemptFn>
RobustOutcome robust_attempt_loop(const spice::SimOptions& base,
                                  const RetryPolicy& policy,
                                  const ExperimentContext& ctx,
                                  AttemptFn&& attempt_fn) {
  RobustOutcome ro;
  const int budget = std::max(1, policy.max_attempts);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    ro.attempts = attempt;
    const spice::SimOptions tightened =
        tightened_sim_options(base, policy, attempt);
    if (spice::testing::armed() && !ctx.key.empty())
      spice::testing::set_context(ctx.key);
    try {
      ro.outcome = attempt_fn(tightened);
      ro.solved = true;
      spice::testing::clear_context();
      return ro;
    } catch (const pf::CancelledError&) {
      // Cancellation is not a solver failure: never retried, never recorded
      // as kSolveFailed — the sweep abandons the point and resumes it later.
      spice::testing::clear_context();
      throw;
    } catch (const pf::Error& e) {
      spice::testing::clear_context();
      std::ostringstream os;
      os << e.what() << " [" << ctx.describe() << ", attempt " << attempt
         << "/" << budget << "]";
      ro.error = os.str();
      if (attempt < budget)
        PF_LOG_INFO("retrying after solver failure: " << ro.error);
    }
  }
  PF_LOG_INFO("experiment unsolved after " << budget
                                           << " attempts: " << ro.error);
  return ro;
}

}  // namespace

RobustOutcome run_sos_robust(const dram::DramParams& params,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe) {
  return robust_attempt_loop(
      params.sim, policy, ctx, [&](const spice::SimOptions& tightened) {
        dram::DramParams attempt_params = params;
        attempt_params.sim = tightened;
        return run_sos(attempt_params, defect, line, u, sos,
                       idle_before_observe);
      });
}

RobustOutcome run_sos_robust(SosSession& session,
                             const spice::SimOptions& base,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe) {
  PF_CHECK_MSG(defect.kind == session.column().defect().kind &&
                   defect.site == session.column().defect().site,
               "session compiled for a different defect topology");
  return robust_attempt_loop(
      base, policy, ctx, [&](const spice::SimOptions& tightened) {
        return session.run(defect.resistance, tightened, line, u, sos,
                           idle_before_observe);
      });
}

std::string grid_point_key(size_t ix, size_t iy) {
  return "iy=" + std::to_string(iy) + ",ix=" + std::to_string(ix);
}

std::string completion_key(double r_def, double u) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "completion:r=%g,u=%g", r_def, u);
  return buf;
}

}  // namespace pf::analysis
