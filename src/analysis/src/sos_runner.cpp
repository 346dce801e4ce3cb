#include "pf/analysis/sos_runner.hpp"

#include <cmath>
#include <sstream>

#include "pf/util/error.hpp"

namespace pf::analysis {

using dram::DramColumn;
using faults::CellRole;
using faults::Op;
using faults::Sos;

namespace {

// Step 1 of the recipe: the SOS's initializing states, applied as ordinary
// (defective) operations. Runs BEFORE the floating-voltage injection, so
// the resulting column state depends only on (configuration, initial
// states) — the invariant behind SosSession's post-init snapshot cache.
void apply_initial_states(DramColumn& column, const Sos& sos) {
  if (sos.initial_aggressor >= 0)
    column.write(DramColumn::kAggressorSameBl, sos.initial_aggressor);
  if (sos.initial_victim >= 0)
    column.write(DramColumn::kVictim, sos.initial_victim);
}

// Steps 2-4: floating-voltage injection, operations, observation and
// classification. The column must already carry the initializing states.
SosOutcome observe_sos(DramColumn& column, const dram::FloatingLine* line,
                       double u, const Sos& sos, bool idle_before_observe) {
  const int victim = DramColumn::kVictim;
  const int aggressor = DramColumn::kAggressorSameBl;

  // 2. Floating-voltage injection.
  if (line != nullptr) column.apply_floating_voltage(*line, u);

  // 3. Operations.
  int last_victim_read = -1;
  bool last_op_is_victim_read = false;
  for (const Op& op : sos.ops) {
    const int addr = op.target == CellRole::kVictim ? victim : aggressor;
    if (op.is_read()) {
      const int got = column.read(addr);
      if (op.target == CellRole::kVictim) last_victim_read = got;
    } else {
      column.write(addr, op.write_value());
    }
    last_op_is_victim_read =
        op.is_read() && op.target == CellRole::kVictim;
  }
  // Operation-free SOS (state faults): give the floating line one precharge
  // cycle to act on the cell.
  int pre_idle_state = -1;
  if (sos.ops.empty() || idle_before_observe) {
    pre_idle_state = column.cell_logical(victim);
    column.idle_cycle();
  }

  // 4. Observation and classification. Guard first: a non-finite storage
  // voltage (silently diverged solve) must surface as a retryable solver
  // failure — thresholding NaN would classify a bogus fault primitive.
  const double victim_v = column.cell_voltage(victim);
  if (!std::isfinite(victim_v)) {
    std::ostringstream os;
    os << "non-finite victim storage voltage (" << victim_v
       << ") before FFM classification";
    throw ConvergenceError(os.str());
  }
  SosOutcome out;
  out.final_state = column.cell_logical(victim);
  out.read_result = last_op_is_victim_read ? last_victim_read : -1;
  out.observed.sos = sos;
  out.observed.faulty_state = out.final_state;
  out.observed.read_result = out.read_result;
  out.faulty = out.observed.is_fault();
  // A state fault must be CAUSED by the memory during the idle cycle;
  // merely retaining the injected floating voltage is not a fault of the
  // cell's own dynamics (the injection itself encodes unknown history).
  if (sos.ops.empty() && out.final_state == pre_idle_state) out.faulty = false;
  if (out.faulty) out.ffm = faults::classify(out.observed);
  return out;
}

}  // namespace

SosOutcome run_sos_on(DramColumn& column, const dram::FloatingLine* line,
                      double u, const Sos& sos, bool idle_before_observe) {
  apply_initial_states(column, sos);
  return observe_sos(column, line, u, sos, idle_before_observe);
}

SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u, const Sos& sos,
                   bool idle_before_observe) {
  DramColumn column(params, defect);
  return run_sos_on(column, line, u, sos, idle_before_observe);
}

SosSession::SosSession(const dram::DramParams& params,
                       const dram::Defect& defect)
    : column_(params, defect) {}

SosOutcome SosSession::run(double r_def, const spice::SimOptions& options,
                           const dram::FloatingLine* line, double u,
                           const Sos& sos, bool idle_before_observe) {
  // Reconfigure through the compiled template: both setters are cheap
  // no-ops when the value is already stamped, so consecutive points of one
  // grid row (same R_def, same options) reset() via snapshot restore
  // without solving anything.
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  // Post-init snapshot cache: the floating voltage is only injected AFTER
  // the initializing writes, so across one grid row (same R_def, numerics
  // and initial states, varying U) every experiment shares the exact
  // post-initialization state. Restoring it replays nothing and is
  // bit-identical to reset() + re-solved writes (deterministic engine).
  if (init_valid_ && r_def == init_r_ &&
      sos.initial_victim == init_victim_ &&
      sos.initial_aggressor == init_aggressor_ &&
      spice::same_numerics(options, init_options_)) {
    column_.restore_state(init_state_);
  } else {
    init_valid_ = false;  // stays false if power-up or an init write throws
    column_.reset();  // bit-identical to a freshly built column
    apply_initial_states(column_, sos);
    init_state_ = column_.save_state();
    init_options_ = options;
    init_r_ = r_def;
    init_victim_ = sos.initial_victim;
    init_aggressor_ = sos.initial_aggressor;
    init_valid_ = true;
  }
  return observe_sos(column_, line, u, sos, idle_before_observe);
}

}  // namespace pf::analysis
