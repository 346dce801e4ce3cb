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
//     pf/dram/column.hpp) and its snapshot trie restores only states the
//     same trajectory would reach, a session run and a run_sos call with
//     the same (R_def, options, U, SOS) return identical SosOutcomes.
#pragma once

#include <cstdint>
#include <optional>
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

/// The implementation behind run_sos (SosSession::run shares its
/// initializing writes, operation loop and classification): executes the
/// SOS on `column`, which must be in the pristine post-power-up state
/// (fresh construction or reset()).
SosOutcome run_sos_on(dram::DramColumn& column, const dram::FloatingLine* line,
                      double u, const faults::Sos& sos,
                      bool idle_before_observe = false);

/// A reusable experiment context for one worker of a sweep or completion
/// search: one compiled column whose topology is fixed at construction and
/// whose swept values (defect resistance, engine options, floating voltage)
/// are restamped per run. Not thread-safe — give each worker its own
/// session via clone().
///
/// Runs share solved work through ONE snapshot trie. Every experiment is a
/// deterministic trajectory — power-up, initializing writes, injection of
/// U, the SOS's operations — so two experiments with the same configuration
/// (R_def, numerics) pass through bit-identical states for as long as their
/// inputs agree:
///
///   root    (init states)                         post-initialization
///   node    (init states, line, U bitwise,        after the k-th leading
///            leading completing writes 1..k)      completing write
///
/// A run restores its deepest stored node and solves only the rest; the
/// root alone is the post-initialization cache every sweep row hits (one
/// row varies only U). The completion search is what walks deeper: its
/// candidates at one probe point differ only in their completing prefix
/// (Op::completing), so each candidate resumes from the longest prefix an
/// earlier candidate already solved. Nodes are stored after every leading
/// completing write except the SOS's last one, which bounds the trie at
/// (init variants) x (probe voltages) x (4 + 16) states for the search's
/// 3-op vocabulary. A change of R_def or of the numeric options clears it.
///
/// A run that carries a completing prefix stores a snapshot (root or node)
/// only from a trajectory that saw no injected solver fault
/// (SimStats::injected_faults == 0): a fault-injection test may corrupt one
/// probe attempt, never the later candidates that would restore from it.
/// Runs without one (sweeps) store the root exactly as before. Snapshots
/// carry t, dt, every voltage, the ramps and SimStats, so a restored run is
/// bit-identical to the run that solves everything.
class SosSession {
 public:
  /// Compiles the column once for (params, defect). The defect's
  /// `resistance` is only the initial stamp — each run() restamps it to
  /// that experiment's R_def through the template's ParamHandle.
  SosSession(const dram::DramParams& params, const dram::Defect& defect);

  /// A pristine replica sharing the compiled template (cheap run-state
  /// clone) — the per-worker fan-out hook of the parallel drivers. The
  /// replica starts with an empty trie and zeroed counters.
  SosSession clone() const { return SosSession(column_.clone_fresh()); }

  const dram::DramColumn& column() const { return column_; }

  /// One experiment, bit-identical to
  ///   run_sos(params{sim = options}, defect{resistance = r_def}, ...)
  /// on a fresh column, whatever the trie holds.
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

  /// Engine steps this session's runs actually solved, failed attempts
  /// included; trajectory restored from a snapshot (trie node, root or the
  /// column's cached power-up) is excluded.
  uint64_t steps_solved() const { return steps_solved_; }
  /// Runs that resumed from a stored completing-write prefix (depth >= 1).
  uint64_t prefix_restores() const { return prefix_restores_; }

 private:
  explicit SosSession(dram::DramColumn column) : column_(std::move(column)) {}

  /// One trie entry: `ops` empty is a root (pre-injection, keyed on the
  /// init states only); otherwise the state after injecting (line, U) and
  /// applying `ops`, the SOS's leading completing writes.
  struct Snapshot {
    int init_victim = -1;
    int init_aggressor = -1;
    std::optional<dram::FloatingLine> line;
    uint64_t u_bits = 0;
    std::vector<faults::Op> ops;
    dram::DramColumn::State state;
  };

  /// The stored snapshot for the first `depth` ops of `sos`, or null.
  const Snapshot* find(const faults::Sos& sos, const dram::FloatingLine* line,
                       uint64_t u_bits, size_t depth) const;
  /// The trie walk behind run(); `restored_steps` receives the steps of
  /// the trajectory restored rather than solved.
  SosOutcome run_from_trie(const dram::FloatingLine* line, double u,
                           const faults::Sos& sos, bool idle_before_observe,
                           uint64_t& restored_steps);

  dram::DramColumn column_;

  // The snapshot trie and the configuration it is valid for.
  std::vector<Snapshot> trie_;
  double trie_r_ = 0.0;
  spice::SimOptions trie_options_;

  uint64_t steps_solved_ = 0;
  uint64_t prefix_restores_ = 0;
};

}  // namespace pf::analysis
