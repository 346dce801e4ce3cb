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

void declare_context(const ExperimentContext& ctx) {
  if (spice::testing::armed() && !ctx.key.empty())
    spice::testing::set_context(ctx.key);
}

/// Record a failed attempt: the message with its experiment context.
void note_failure(RobustOutcome& ro, const pf::Error& e,
                  const ExperimentContext& ctx, int budget) {
  std::ostringstream os;
  os << e.what() << " [" << ctx.describe() << ", attempt " << ro.attempts
     << "/" << budget << "]";
  ro.error = os.str();
  if (ro.attempts < budget)
    PF_LOG_INFO("retrying after solver failure: " << ro.error);
}

/// The retry loop shared by the rebuild and session overloads. Attempt 1
/// runs every SOS in one `batch(options, failures)` call under one
/// declared context; each SOS that failed it then retries alone, attempt k
/// through `solo(i, options)` under its own declaration of the context.
template <typename BatchFn, typename SoloFn>
std::vector<RobustOutcome> robust_attempt_loop(
    const spice::SimOptions& base, const std::vector<faults::Sos>& soses,
    const RetryPolicy& policy, const ExperimentContext& ctx, BatchFn&& batch,
    SoloFn&& solo) {
  const int budget = std::max(1, policy.max_attempts);
  std::vector<RobustOutcome> ros(soses.size());
  std::vector<std::exception_ptr> failures(soses.size());
  declare_context(ctx);
  std::vector<SosOutcome> first;
  try {
    first = batch(tightened_sim_options(base, policy, 1), failures);
  } catch (const pf::CancelledError&) {
    // Cancellation is not a solver failure: never retried, never recorded
    // as kSolveFailed — the sweep abandons the point and resumes it later.
    spice::testing::clear_context();
    throw;
  }
  spice::testing::clear_context();

  for (size_t i = 0; i < soses.size(); ++i) {
    RobustOutcome& ro = ros[i];
    ExperimentContext sos_ctx = ctx;
    sos_ctx.sos = soses[i].to_string();
    ro.attempts = 1;
    try {
      if (failures[i]) std::rethrow_exception(failures[i]);
      ro.outcome = std::move(first[i]);
      ro.solved = true;
      continue;
    } catch (const pf::Error& e) {
      note_failure(ro, e, sos_ctx, budget);
    }
    while (!ro.solved && ro.attempts < budget) {
      ++ro.attempts;
      const spice::SimOptions tightened =
          tightened_sim_options(base, policy, ro.attempts);
      declare_context(sos_ctx);
      try {
        ro.outcome = solo(i, tightened);
        ro.solved = true;
      } catch (const pf::CancelledError&) {
        spice::testing::clear_context();
        throw;
      } catch (const pf::Error& e) {
        note_failure(ro, e, sos_ctx, budget);
      }
      spice::testing::clear_context();
    }
    if (!ro.solved)
      PF_LOG_INFO("experiment unsolved after " << budget
                                               << " attempts: " << ro.error);
  }
  return ros;
}

}  // namespace

std::vector<RobustOutcome> run_sos_robust(
    const dram::DramParams& params, const dram::Defect& defect,
    const dram::FloatingLine* line, double u,
    const std::vector<faults::Sos>& soses, const RetryPolicy& policy,
    const ExperimentContext& ctx, bool idle_before_observe) {
  // Nothing is shared: every SOS of every attempt runs on a fresh column.
  const auto solo = [&](size_t i, const spice::SimOptions& tightened) {
    dram::DramParams attempt_params = params;
    attempt_params.sim = tightened;
    return run_sos(attempt_params, defect, line, u, soses[i],
                   idle_before_observe);
  };
  const auto batch = [&](const spice::SimOptions& tightened,
                         std::vector<std::exception_ptr>& failures) {
    std::vector<SosOutcome> outs(soses.size());
    for (size_t i = 0; i < soses.size(); ++i) {
      try {
        outs[i] = solo(i, tightened);
      } catch (const pf::CancelledError&) {
        throw;
      } catch (const pf::Error&) {
        failures[i] = std::current_exception();
      }
    }
    return outs;
  };
  return robust_attempt_loop(params.sim, soses, policy, ctx, batch, solo);
}

std::vector<RobustOutcome> run_sos_robust(
    SosSession& session, const spice::SimOptions& base,
    const dram::Defect& defect, const dram::FloatingLine* line, double u,
    const std::vector<faults::Sos>& soses, const RetryPolicy& policy,
    const ExperimentContext& ctx, bool idle_before_observe) {
  PF_CHECK_MSG(defect.kind == session.column().defect().kind &&
                   defect.site == session.column().defect().site,
               "session compiled for a different defect topology");
  const auto batch = [&](const spice::SimOptions& tightened,
                         std::vector<std::exception_ptr>& failures) {
    return session.run_all(defect.resistance, tightened, line, u, soses,
                           idle_before_observe, &failures);
  };
  const auto solo = [&](size_t i, const spice::SimOptions& tightened) {
    return session.run(defect.resistance, tightened, line, u, soses[i],
                       idle_before_observe);
  };
  return robust_attempt_loop(base, soses, policy, ctx, batch, solo);
}

RobustOutcome run_sos_robust(const dram::DramParams& params,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe) {
  return run_sos_robust(params, defect, line, u, std::vector<faults::Sos>{sos},
                        policy, ctx, idle_before_observe)
      .front();
}

RobustOutcome run_sos_robust(SosSession& session,
                             const spice::SimOptions& base,
                             const dram::Defect& defect,
                             const dram::FloatingLine* line, double u,
                             const faults::Sos& sos,
                             const RetryPolicy& policy,
                             const ExperimentContext& ctx,
                             bool idle_before_observe) {
  return run_sos_robust(session, base, defect, line, u,
                        std::vector<faults::Sos>{sos}, policy, ctx,
                        idle_before_observe)
      .front();
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
