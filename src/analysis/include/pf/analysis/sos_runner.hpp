// Execution of a sensitizing operation sequence on the electrical DRAM
// column with floating-voltage injection — the measurement primitive of the
// paper's fault-analysis method (Section 3):
//
//   1. power the column up and apply the SOS's initializing states
//      (ordinary write operations),
//   2. override the defect's floating line to the probe voltage U,
//   3. apply the SOS's operations (completing prefix + sensitizing suffix),
//   4. observe the victim's final state F and the final read result R and
//      classify the deviation as a fault primitive / FFM.
//
// There is exactly ONE implementation of that recipe — run_sos_on — and two
// ways to hand it a column:
//
//   * run_sos builds a fresh DramColumn per call (netlist + compiled
//     template + power-up). Simple, stateless, and the reference semantics
//     every reuse path must reproduce bit for bit.
//   * SosSession keeps a per-worker column alive across experiments and
//     reconfigures it per point through the compile-once pipeline: restamp
//     the defect resistance via its ParamHandle, swap engine options in
//     place, reset() to the pristine post-power-up state. Because reset()
//     is defined as bit-identical to a fresh construction (see
//     pf/dram/column.hpp), a session run and a run_sos call with the same
//     (R_def, options, U, SOS) return identical SosOutcomes.
#pragma once

#include <string>
#include <vector>

#include "pf/dram/column.hpp"
#include "pf/dram/defect.hpp"
#include "pf/faults/ffm.hpp"
#include "pf/faults/fp.hpp"

namespace pf::analysis {

struct SosOutcome {
  int final_state = -1;  ///< victim's logical content after the SOS
  int read_result = -1;  ///< result of the SOS's final victim read (-1: none)
  bool faulty = false;   ///< deviates from the SOS's fault-free expectation
  faults::FaultPrimitive observed;  ///< SOS + observed <F, R>
  faults::Ffm ffm = faults::Ffm::kUnknown;  ///< classification (when faulty)
};

/// How a sweep driver obtains the circuit for each grid point.
enum class CircuitMode {
  /// Per-worker compiled column, restamped + reset() per point. The compiled
  /// template is built once per sweep and shared by every worker; results
  /// are bit-identical to kRebuild at any thread count.
  kReuse,
  /// Fresh netlist + template + column per point (the pre-pipeline
  /// behaviour). Kept as the reference implementation and A/B escape hatch.
  kRebuild,
};

/// Run one (defect, floating-voltage, SOS) experiment on a fresh column.
/// `line` may be null (no override — nominal behaviour). For an
/// operation-free SOS (state faults) one idle precharge cycle runs between
/// the override and the observation, which is the paper's SF mechanism;
/// `idle_before_observe` forces that extra cycle for op-carrying SOSes too
/// (used when searching completing operations for state faults).
SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u,
                   const faults::Sos& sos, bool idle_before_observe = false);

/// The implementation behind run_sos (SosSession::run shares it from the
/// floating-voltage injection on): executes the SOS on `column`, which must
/// be in the pristine post-power-up state (fresh construction or reset()).
SosOutcome run_sos_on(dram::DramColumn& column, const dram::FloatingLine* line,
                      double u, const faults::Sos& sos,
                      bool idle_before_observe = false);

/// A reusable experiment context for one worker of a sweep: one compiled
/// column whose topology is fixed at construction and whose swept values
/// (defect resistance, engine options, floating voltage) are restamped per
/// run. Not thread-safe — give each worker its own session via clone().
class SosSession {
 public:
  /// Compiles the column once for (params, defect). The defect's
  /// `resistance` is only the initial stamp — each run() restamps it to
  /// that experiment's R_def through the template's ParamHandle.
  SosSession(const dram::DramParams& params, const dram::Defect& defect);

  /// A pristine replica sharing the compiled template (cheap run-state
  /// clone) — the per-worker fan-out hook of the parallel sweep engine.
  SosSession clone() const { return SosSession(column_.clone_fresh()); }

  const dram::DramColumn& column() const { return column_; }

  /// One experiment, bit-identical to
  ///   run_sos(params{sim = options}, defect{resistance = r_def}, ...)
  /// on a fresh column.
  ///
  /// Runs cache the POST-INITIALIZATION snapshot: the SOS's initializing
  /// writes (step 1) happen before the floating voltage is injected
  /// (step 2), so consecutive experiments that share (R_def, numerics,
  /// initial states) — e.g. one grid row of a sweep, which varies only U —
  /// restore the snapshot instead of re-solving power-up and the
  /// initializing writes. Deterministic replay makes the restored state
  /// equal the re-solved state bit for bit, so outcomes are unaffected.
  SosOutcome run(double r_def, const spice::SimOptions& options,
                 const dram::FloatingLine* line, double u,
                 const faults::Sos& sos, bool idle_before_observe = false);

  /// Swap the underlying column's engine options in place, exactly like a
  /// per-run `options` argument would. The override is part of the
  /// session's configuration: clone() carries it into the replica (the
  /// clone copies the column's parameter block, engine options included).
  void set_sim_options(const spice::SimOptions& options) {
    column_.set_sim_options(options);
  }

 private:
  explicit SosSession(dram::DramColumn column) : column_(std::move(column)) {}

  dram::DramColumn column_;

  // Post-initialization snapshot cache (keyed on the exact configuration
  // that determines the pre-injection trajectory).
  dram::DramColumn::State init_state_;
  spice::SimOptions init_options_;
  double init_r_ = 0.0;
  int init_victim_ = -2;     // -2: cache empty (Sos uses -1 for "no init")
  int init_aggressor_ = -2;
  bool init_valid_ = false;
};

}  // namespace pf::analysis
